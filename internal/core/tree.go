package core

import (
	"fmt"
	"math/rand"
)

// TreeNode is one node of an arbitrary ITE-tree shape (Sect. 3: "In
// general, the ITE tree for a CSP variable can have any structure").
// A node with both children nil is a leaf (a domain value slot); an
// internal node selects its left child when its indexing Boolean
// variable is true, else its right child.
type TreeNode struct {
	Left, Right *TreeNode
}

// IsLeaf reports whether the node is a domain-value slot.
func (t *TreeNode) IsLeaf() bool { return t.Left == nil && t.Right == nil }

// Leaves returns the number of leaves in the tree.
func (t *TreeNode) Leaves() int {
	if t == nil {
		return 0
	}
	if t.IsLeaf() {
		return 1
	}
	return t.Left.Leaves() + t.Right.Leaves()
}

// Depth returns the longest root-to-leaf path length in ITE operators.
func (t *TreeNode) Depth() int {
	if t == nil || t.IsLeaf() {
		return 0
	}
	l, r := t.Left.Depth(), t.Right.Depth()
	if r > l {
		l = r
	}
	return l + 1
}

// validate checks that the tree is a proper binary tree (every internal
// node has exactly two children).
func (t *TreeNode) validate() error {
	if t == nil {
		return fmt.Errorf("core: nil ITE tree node")
	}
	if t.IsLeaf() {
		return nil
	}
	if t.Left == nil || t.Right == nil {
		return fmt.Errorf("core: ITE node with a single child")
	}
	if err := t.Left.validate(); err != nil {
		return err
	}
	return t.Right.validate()
}

// TreeShape produces an ITE-tree shape with exactly d leaves for every
// domain size d >= 2.
type TreeShape func(d int) *TreeNode

// LinearShape is the chain of Fig. 1.a: each ITE selects one value or
// defers to the rest of the chain. NewITETree(LinearShape) generates
// the same cubes as NewSimple(KindITELinear).
func LinearShape(d int) *TreeNode {
	if d == 1 {
		return &TreeNode{}
	}
	return &TreeNode{Left: &TreeNode{}, Right: LinearShape(d - 1)}
}

// BalancedShape is the balanced tree of Fig. 1.b, splitting the larger
// half to the left.
func BalancedShape(d int) *TreeNode {
	if d == 1 {
		return &TreeNode{}
	}
	l := (d + 1) / 2
	return &TreeNode{Left: BalancedShape(l), Right: BalancedShape(d - l)}
}

// RandomShape returns a TreeShape drawing a uniformly random split at
// every node from rng — used by the tree-shape ablation to show that
// shape changes value-selection probabilities without changing
// satisfiability. Each call draws a new tree; an encode calls the shape
// once per domain size, so the vertices of one size share one tree.
func RandomShape(rng *rand.Rand) TreeShape {
	var build func(d int) *TreeNode
	build = func(d int) *TreeNode {
		if d == 1 {
			return &TreeNode{}
		}
		l := 1 + rng.Intn(d-1)
		return &TreeNode{Left: build(l), Right: build(d - l)}
	}
	return build
}

// treeEncoding encodes each CSP variable with an arbitrary ITE tree.
// Unlike ITE-log's per-level variable sharing, every internal node gets
// its own indexing Boolean variable, which trivially satisfies the
// paper's restriction that a variable appears at most once on any
// root-to-leaf path.
type treeEncoding struct {
	name  string
	shape TreeShape
}

// NewITETree returns an encoding built from an arbitrary ITE-tree
// shape. An encode calls the shape once per distinct domain size, and
// every vertex with that domain size gets that tree. The shape is
// validated when it is called; a shape with the wrong number of leaves
// causes Encode to panic, since that is a programming error in the
// shape function.
func NewITETree(name string, shape TreeShape) Encoding {
	return treeEncoding{name: name, shape: shape}
}

func (e treeEncoding) Name() string      { return e.name }
func (e treeEncoding) Multivalued() bool { return false }

func (e treeEncoding) emitVar(d int, a *alloc, sink ClauseSink) []Cube {
	if d == 1 {
		return []Cube{nil}
	}
	t := e.shape(d)
	if err := t.validate(); err != nil {
		panic(err)
	}
	if got := t.Leaves(); got != d {
		panic(fmt.Sprintf("core: ITE tree shape %s produced %d leaves for domain %d",
			e.name, got, d))
	}
	cubes := make([]Cube, 0, d)
	var walk func(n *TreeNode, prefix Cube)
	walk = func(n *TreeNode, prefix Cube) {
		if n.IsLeaf() {
			cubes = append(cubes, append(Cube(nil), prefix...))
			return
		}
		v := a.block(1)[0]
		walk(n.Left, append(prefix, v))
		walk(n.Right, append(prefix[:len(prefix):len(prefix)], -v))
	}
	walk(t, nil)
	return cubes
}
