package topology

import (
	"testing"
	"testing/quick"
)

// Degree returns the maximum node degree.
func (g *Graph) Degree() int {
	d := 0
	for _, a := range g.Adj {
		if len(a) > d {
			d = len(a)
		}
	}
	return d
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	m := 0
	for _, a := range g.Adj {
		m += len(a)
	}
	return m / 2
}

func TestArrayMesh2D(t *testing.T) {
	g := Array(4, 2, false)
	if g.P() != 16 || g.Nodes() != 16 {
		t.Fatalf("p=%d nodes=%d", g.P(), g.Nodes())
	}
	if d := g.Diameter(); d != 6 {
		t.Fatalf("4x4 mesh diameter = %d, want 6", d)
	}
	if deg := g.Degree(); deg != 4 {
		t.Fatalf("degree = %d, want 4", deg)
	}
	// 2 * 4 * 3 = 24 edges.
	if e := g.Edges(); e != 24 {
		t.Fatalf("edges = %d, want 24", e)
	}
}

func TestArrayTorus(t *testing.T) {
	g := Array(4, 2, true)
	if d := g.Diameter(); d != 4 {
		t.Fatalf("4x4 torus diameter = %d, want 4", d)
	}
	if e := g.Edges(); e != 32 {
		t.Fatalf("edges = %d, want 32", e)
	}
}

func TestArray3D(t *testing.T) {
	g := Array(3, 3, false)
	if g.P() != 27 {
		t.Fatalf("p = %d", g.P())
	}
	if d := g.Diameter(); d != 6 {
		t.Fatalf("3x3x3 diameter = %d, want 6", d)
	}
}

func TestArray1DIsPath(t *testing.T) {
	g := Array(5, 1, false)
	if d := g.Diameter(); d != 4 {
		t.Fatalf("path diameter = %d, want 4", d)
	}
	g = Array(5, 1, true)
	if d := g.Diameter(); d != 2 {
		t.Fatalf("ring diameter = %d, want 2", d)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(32, true)
	if g.P() != 32 || g.Degree() != 5 {
		t.Fatalf("p=%d degree=%d", g.P(), g.Degree())
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("diameter = %d, want 5", d)
	}
	if g.AnalyticGamma != 1 {
		t.Fatalf("multi-port gamma = %v", g.AnalyticGamma)
	}
	if sp := Hypercube(32, false); sp.AnalyticGamma != 5 {
		t.Fatalf("single-port gamma = %v, want 5", sp.AnalyticGamma)
	}
}

func TestButterfly(t *testing.T) {
	lg := 3
	g := Butterfly(lg)
	if g.Nodes() != lg*(1<<lg) {
		t.Fatalf("nodes = %d", g.Nodes())
	}
	if deg := g.Degree(); deg != 4 {
		t.Fatalf("wrapped butterfly degree = %d, want 4", deg)
	}
	// Wrapped butterfly diameter is at most 2*lg.
	if d := g.Diameter(); d < lg || d > 2*lg {
		t.Fatalf("diameter = %d, want within [%d, %d]", d, lg, 2*lg)
	}
}

func TestCCC(t *testing.T) {
	lg := 3
	g := CCC(lg)
	if g.Nodes() != lg*(1<<lg) {
		t.Fatalf("nodes = %d", g.Nodes())
	}
	if deg := g.Degree(); deg != 3 {
		t.Fatalf("CCC degree = %d, want 3", deg)
	}
	// CCC(3) diameter is 6.
	if d := g.Diameter(); d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
}

func TestShuffleExchange(t *testing.T) {
	g := ShuffleExchange(3)
	if g.Nodes() != 8 {
		t.Fatalf("nodes = %d", g.Nodes())
	}
	if deg := g.Degree(); deg > 3 {
		t.Fatalf("degree = %d, want <= 3", deg)
	}
	// Classic: SE(lg) diameter <= 2*lg - 1; connectivity verified by
	// Diameter not panicking.
	if d := g.Diameter(); d > 2*3-1 {
		t.Fatalf("diameter = %d, want <= 5", d)
	}
}

func TestMeshOfTrees(t *testing.T) {
	side := 4
	g := MeshOfTrees(side)
	if g.P() != 16 {
		t.Fatalf("p = %d", g.P())
	}
	// p leaves + 2*side*(side-1) internal nodes.
	if g.Nodes() != 16+2*4*3 {
		t.Fatalf("nodes = %d, want 40", g.Nodes())
	}
	// Leaves have degree 2 (one row tree, one column tree); roots 2;
	// internal 3.
	if deg := g.Degree(); deg != 3 {
		t.Fatalf("degree = %d, want 3", deg)
	}
	// Diameter: leaf -> row root -> leaf -> col root -> leaf is at
	// most 4*log2(side) hops.
	if d := g.Diameter(); d > 8 {
		t.Fatalf("diameter = %d, want <= 8", d)
	}
}

func TestAllValidatorsAcceptBuilders(t *testing.T) {
	// validate() panics on malformed graphs; constructing a spread of
	// sizes exercises it.
	builders := []func() *Graph{
		func() *Graph { return Array(2, 1, false) },
		func() *Graph { return Array(8, 2, true) },
		func() *Graph { return Hypercube(2, false) },
		func() *Graph { return Hypercube(128, true) },
		func() *Graph { return Butterfly(4) },
		func() *Graph { return CCC(4) },
		func() *Graph { return ShuffleExchange(5) },
		func() *Graph { return MeshOfTrees(8) },
	}
	for _, b := range builders {
		g := b()
		if g.Diameter() <= 0 {
			t.Fatalf("%s: non-positive diameter", g.Name)
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { Array(1, 2, false) },
		func() { Hypercube(12, true) },
		func() { Butterfly(1) },
		func() { CCC(2) },
		func() { ShuffleExchange(1) },
		func() { MeshOfTrees(6) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHypercubeDiameterProperty(t *testing.T) {
	check := func(lgRaw uint8) bool {
		lg := int(lgRaw%6) + 1
		g := Hypercube(1<<lg, false)
		return g.Diameter() == lg
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshDiameterProperty(t *testing.T) {
	check := func(sideRaw uint8) bool {
		side := int(sideRaw%6) + 2
		g := Array(side, 2, false)
		return g.Diameter() == 2*(side-1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
