package main

import "testing"

// The steadiness table must compute quartiles exactly as Python's
// statistics.quantiles(values, n=4) does.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 7, 2}, [3]float64{1.625, 3.5, 8.0}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTestCatchesPlantedFaults(t *testing.T) {
	if code := runSelfTest(); code != 0 {
		t.Fatalf("self-test exit code %d", code)
	}
}
