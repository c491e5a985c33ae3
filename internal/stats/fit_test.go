package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	f := FitLine(xs, ys)
	if !almost(f.Slope, 3, 1e-9) || !almost(f.Intercept, 7, 1e-9) {
		t.Fatalf("fit = %+v, want slope 3 intercept 7", f)
	}
	if !almost(f.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := NewRNG(77)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + 10 + (r.Float64()-0.5)*0.2
	}
	f := FitLine(xs, ys)
	if !almost(f.Slope, 2, 0.01) || !almost(f.Intercept, 10, 0.5) {
		t.Fatalf("fit = %+v, want about slope 2 intercept 10", f)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 = %v too low for tiny noise", f.R2)
	}
}

func TestFitLinePropertyRecoversLine(t *testing.T) {
	check := func(slope, intercept int8) bool {
		a := float64(slope)
		b := float64(intercept)
		xs := []float64{0, 1, 2, 3, 4, 5, 6}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		f := FitLine(xs, ys)
		return almost(f.Slope, a, 1e-6) && almost(f.Intercept, b, 1e-6)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLinePanics(t *testing.T) {
	cases := []struct {
		name   string
		xs, ys []float64
	}{
		{"mismatch", []float64{1, 2}, []float64{1}},
		{"too-few", []float64{1}, []float64{1}},
		{"constant-x", []float64{2, 2, 2}, []float64{1, 2, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("FitLine(%v,%v) did not panic", c.xs, c.ys)
				}
			}()
			FitLine(c.xs, c.ys)
		})
	}
}
