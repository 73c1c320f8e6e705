package sat

// varHeap is a binary max-heap of variables ordered by activity, with
// an index map for decrease/increase-key, as used for VSIDS decision
// ordering. It is a dedicated implementation rather than
// container/heap so that updates avoid interface-call overhead on the
// solver's hottest non-propagation path.
type varHeap struct {
	heap []Var // heap of variables
	// indices maps a variable to its position in heap, -1 if absent.
	// Positions stay below maxVars, so 4 bytes hold them.
	indices []int32
	act     *[]float64
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

// reset empties the heap for solver reuse, retaining capacity; grow
// refills the index map as variables are reintroduced.
func (h *varHeap) reset() {
	h.heap = h.heap[:0]
	h.indices = h.indices[:0]
}

func (h *varHeap) less(a, b Var) bool {
	return (*h.act)[a] > (*h.act)[b]
}

func (h *varHeap) grow(n int) {
	for len(h.indices) < n {
		h.indices = append(h.indices, -1)
	}
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) percolateUp(i int) {
	x := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(x, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = int32(i)
		i = p
	}
	h.heap[i] = x
	h.indices[x] = int32(i)
}

func (h *varHeap) percolateDown(i int) {
	x := h.heap[i]
	n := len(h.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.less(h.heap[r], h.heap[l]) {
			child = r
		}
		if !h.less(h.heap[child], x) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = int32(i)
		i = child
	}
	h.heap[i] = x
	h.indices[x] = int32(i)
}

// insert puts v into the heap if it is not already there.
func (h *varHeap) insert(v Var) {
	h.grow(int(v) + 1)
	if h.inHeap(v) {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = int32(len(h.heap) - 1)
	h.percolateUp(len(h.heap) - 1)
}

// removeMin pops the highest-activity variable.
func (h *varHeap) removeMin() Var {
	x := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.indices[x] = -1
	h.heap = h.heap[:len(h.heap)-1]
	if len(h.heap) > 1 {
		h.percolateDown(0)
	}
	return x
}

// decrease re-heapifies after v's activity increased (so v may need to
// move toward the root; the name follows MiniSat's min-heap wording).
func (h *varHeap) decrease(v Var) {
	if h.inHeap(v) {
		h.percolateUp(int(h.indices[v]))
	}
}
