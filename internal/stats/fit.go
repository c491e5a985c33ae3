package stats

// LinearFit holds the result of an ordinary least-squares fit of
// y = Intercept + Slope*x, together with the coefficient of
// determination R2.
//
// The benchmark harness uses LinearFit to estimate the bandwidth and
// latency parameters of a simulated network: routing times for random
// h-relations are regressed against h, giving g (the slope) and ell
// (the intercept), mirroring how the BSP and LogP parameters are
// extracted from real machines.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the ordinary least-squares line through the points
// (xs[i], ys[i]). It panics if the slices differ in length or contain
// fewer than two points, or if all xs are identical.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLine slice length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		panic("stats: FitLine needs at least two points")
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: FitLine requires non-constant xs")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			resid := ys[i] - (intercept + slope*xs[i])
			ssRes += resid * resid
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}
