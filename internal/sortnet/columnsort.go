package sortnet

// Columnsort (Leighton 1985) sorts an r x s matrix held one column per
// processor, in a constant number of oblivious rounds, provided
// s divides r and r >= 2(s-1)^2. It stands in for the paper's use of
// Cubesort: both are constant-round oblivious algorithms for large
// blocks, achieving LogP time O(G*r + L) per the Section 4.2 analysis.
//
// The implementation uses the standard distributed formulation:
//
//	1. sort each column
//	2. "transpose" redistribution (column-major rank -> row-major rank)
//	3. sort each column
//	4. "untranspose" (the inverse redistribution)
//	5. sort each column
//	6. boundary merge: Leighton's shift/sort/unshift triple collapses
//	   to jointly sorting, for every adjacent column pair, the window
//	   formed by the bottom half of the left column and the top half
//	   of the right column; the windows are disjoint, so a single
//	   neighbor exchange realizes all of them.
//
// The sorted output is in column-major order: processor j ends up
// holding global ranks [j*r, (j+1)*r) in ascending order.

// ColumnsortValid reports whether Columnsort's correctness conditions
// hold for r rows and s columns: s | r, r even, and r >= 2(s-1)^2.
// s = 1 is trivially valid.
func ColumnsortValid(r, s int) bool {
	if s < 1 || r < 1 {
		return false
	}
	if s == 1 {
		return true
	}
	return r%s == 0 && r%2 == 0 && r >= 2*(s-1)*(s-1)
}

// TransposeDest maps the element at (row idx, column col) of the r x s
// matrix to its destination under the transpose redistribution: the
// element with column-major rank q = col*r + idx moves to row-major
// position (q/s, q%s), i.e. to column q%s at row q/s.
func TransposeDest(r, s, col, idx int) (dstCol, dstIdx int) {
	q := col*r + idx
	return q % s, q / s
}

// UntransposeDest is the inverse of TransposeDest: the element at
// row-major rank q = idx*s + col returns to column-major position
// (q%r, q/r).
func UntransposeDest(r, s, col, idx int) (dstCol, dstIdx int) {
	q := idx*s + col
	return q / r, q % r
}

// ColumnsortRounds is the number of communication rounds Columnsort
// performs (two redistributions plus the boundary exchange); local
// sorts are computation, not communication.
const ColumnsortRounds = 3
