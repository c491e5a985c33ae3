package stats

import "math"

// ChernoffUpperTail bounds Prob(X > (1+delta)*mu) for a sum X of
// independent Bernoulli variables with mean mu, using the classical
// bound (e^delta / (1+delta)^(1+delta))^mu cited by the paper
// (Hagerup-Rüb). delta must be non-negative.
//
// Theorem 3's analysis instantiates this with mu = ceil(L/G)/(1+beta)
// and delta = beta to bound the probability that a batch of the
// randomized routing protocol overflows the capacity constraint.
func ChernoffUpperTail(mu, delta float64) float64 {
	if delta < 0 {
		panic("stats: ChernoffUpperTail requires delta >= 0")
	}
	if mu <= 0 {
		return 0
	}
	// Compute in log space to avoid overflow for large mu.
	logB := mu * (delta - (1+delta)*math.Log1p(delta))
	return math.Exp(logB)
}

// Theorem3Rounds returns the number of batches R = (1+beta)*h/capacity
// used by the randomized protocol, rounded up and at least 1.
func Theorem3Rounds(h, capacity int, beta float64) int {
	if capacity <= 0 {
		panic("stats: Theorem3Rounds requires positive capacity")
	}
	r := int(math.Ceil((1 + beta) * float64(h) / float64(capacity)))
	if r < 1 {
		r = 1
	}
	return r
}

// Theorem3FailureBound returns the paper's union bound
// 2*R*p * ChernoffUpperTail(capacity/(1+beta), beta) on the probability
// that the randomized protocol either stalls or leaves a message for
// the cleanup phase.
func Theorem3FailureBound(p, h, capacity int, beta float64) float64 {
	r := Theorem3Rounds(h, capacity, beta)
	mu := float64(capacity) / (1 + beta)
	b := 2 * float64(r) * float64(p) * ChernoffUpperTail(mu, beta)
	if b > 1 {
		b = 1
	}
	return b
}
