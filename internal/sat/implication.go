package sat

// This file implements the store of the solver's implication lists: for
// each literal l, the other literal of every binary clause containing l,
// each of which is implied once l is false. On the scaled fabrics a
// []Lit per literal would spend a 24-byte slice header per literal, about
// as much as the entries themselves. Here each list is a 12-byte span
// into one of two regions:
//
//   - the slab, in which a census carves every empty list a slot of
//     exactly its count of binary clauses, back to back in literal order;
//   - the overflow region, which takes a list that outgrows its slot
//     (learnt, imported or later binary clauses) at twice the slot's
//     size. It is repacked, live slots only, when full, so a move never
//     copies the slab.
//
// Reset keeps every slot and lays the slots out again back to back, so a
// warm reload refills them without copying or allocating. Moves, repacks,
// censuses and Reset keep every list's entry order, so where a list lives
// never changes a search.

// span locates one literal's list: n entries from off, in a slot of cap
// entries. An off with the inOver bit set is an offset into the overflow
// region, any other an offset into the slab.
type span struct{ off, n, cap uint32 }

// inOver tags the offset of a slot in the overflow region. It keeps both
// regions below 2^31 entries.
const inOver = 1 << 31

// implLists holds the implication lists of every literal. The zero value
// is ready to use.
type implLists struct {
	// spans is indexed by literal. Reset keeps the spans beyond its
	// length with their slots, for the variables a later load creates.
	spans []span
	slab  []Lit
	over  []Lit
	// moved lists the literals whose slot lies in the overflow region.
	moved []Lit
	// garbage counts the words of the slab and the overflow region in no
	// list's slot, as clauseArena.wasted does for the arena.
	garbage int
	// sized is the number of lists at the last census or Reset: a census
	// runs only when lists have been created since.
	sized int
}

// all returns every span, the retained ones beyond the length included.
func (il *implLists) all() []span { return il.spans[:cap(il.spans)] }

// list returns l's entries as a view into their region, valid until the
// next add, census or reset.
func (il *implLists) list(l Lit) []Lit {
	sp := il.spans[l]
	if sp.off&inOver != 0 {
		return il.over[sp.off&^inOver:][:sp.n]
	}
	return il.slab[sp.off:][:sp.n]
}

// add stores the binary clause (a ∨ b): b in a's list and a in b's.
func (il *implLists) add(a, b Lit) {
	if !il.fill(a, b) {
		il.push(a, b)
	}
	if !il.fill(b, a) {
		il.push(b, a)
	}
}

// fill appends q to l's list if the list lies in the slab with room in
// its slot, as every append of a load into carved slots does. It is
// small enough to inline, so those appends, one per entry, cost no
// function call; push takes the rest.
func (il *implLists) fill(l, q Lit) bool {
	sp := &il.spans[l]
	if sp.n == sp.cap || sp.off&inOver != 0 {
		return false
	}
	il.slab[sp.off+sp.n] = q
	sp.n++
	return true
}

// push appends q to l's list, moving the list first if its slot is full.
func (il *implLists) push(l, q Lit) {
	sp := &il.spans[l]
	if sp.n == sp.cap {
		il.move(l)
	}
	region := il.slab
	if sp.off&inOver != 0 {
		region = il.over
	}
	region[sp.off&^inOver+sp.n] = q
	sp.n++
}

// addVar adds the two empty lists of a new variable, re-exposing the
// spans Reset kept.
func (il *implLists) addVar() {
	n := len(il.spans)
	if n+2 > cap(il.spans) {
		il.spans = append(il.spans, span{}, span{})
		return
	}
	il.spans = il.spans[:n+2]
}

// move copies l's list, in order, to a slot of twice the size at the end
// of the overflow region, repacking the region first if it has no room.
// The old slot becomes garbage.
func (il *implLists) move(l Lit) {
	size := max(2*int(il.spans[l].cap), 2)
	if len(il.over)+size > cap(il.over) {
		il.repack(size)
	}
	sp := il.spans[l]
	if sp.off&inOver == 0 {
		il.moved = append(il.moved, l)
	}
	off := len(il.over)
	il.over = append(il.over, il.list(l)...)[:off+size]
	il.garbage += int(sp.cap)
	il.spans[l] = span{uint32(off) | inOver, sp.n, uint32(size)}
}

// repack copies the live slots of the overflow region into a fresh one
// with room for them twice over plus need more entries. The garbage of
// the old region is dropped with it; a region holding no live slot keeps
// its storage if that has the room.
func (il *implLists) repack(need int) {
	all := il.all()
	live := 0
	for _, l := range il.moved {
		live += int(all[l].cap)
	}
	size := 2 * (live + need)
	if size >= inOver {
		panic("sat: implication lists exceed 2^31 entries")
	}
	over := il.over[:0]
	if live > 0 || cap(over) < size {
		over = make([]Lit, 0, size)
	}
	for _, l := range il.moved {
		sp := &all[l]
		off := len(over)
		over = append(over, il.over[sp.off&^inOver:][:sp.n]...)[:off+int(sp.cap)]
		sp.off = uint32(off) | inOver
	}
	il.garbage -= len(il.over) - live
	il.over = over
}

// census carves every empty list a slot in the slab at exactly its count
// of binary clauses: the count-then-fill construction of
// graph.FromEdgeStream. stream replays through il.count the clauses of
// two literals about to be added, each one entry in each literal's list;
// the count goes straight into the list's span.
// It runs only when lists have been created since the last census or
// Reset. After a Reset every list is empty, so a solver growing past the
// lists it kept drops their old slots instead of overflowing them. A list
// that holds entries keeps them, in order, in a slot of its size. The
// load's appends then fill the slots in order. A clause that loading
// drops or shortens to one literal leaves its slots short of capacity,
// and one that loading shortens to two literals moves a list.
func (il *implLists) census(stream func()) {
	if il.sized >= len(il.spans) {
		return
	}
	il.sized = len(il.spans)
	all := il.all()
	for i := range all {
		if all[i].n == 0 {
			all[i] = span{}
		}
	}
	stream()
	words, kept := 0, false
	for _, sp := range all {
		if sp.off&inOver == 0 {
			words += int(sp.cap)
			kept = kept || sp.n > 0
		}
	}
	if words >= inOver {
		panic("sat: implication lists exceed 2^31 entries")
	}
	// Lists that hold entries are copied to a new slab; without them the
	// old slab's storage takes the new slots if it has the room.
	slab := il.slab[:0]
	if kept || cap(slab) < words {
		slab = make([]Lit, 0, words)
	}
	for i := range all {
		if sp := &all[i]; sp.off&inOver == 0 {
			off := len(slab)
			slab = append(slab, il.slab[sp.off:][:sp.n]...)[:off+int(sp.cap)]
			sp.off = uint32(off)
		}
	}
	il.slab = slab
	moved, live := il.moved[:0], 0
	for _, l := range il.moved {
		if sp := all[l]; sp.off&inOver != 0 {
			moved = append(moved, l)
			live += int(sp.cap)
		}
	}
	il.moved = moved
	il.garbage = len(il.over) - live
}

// count takes one binary clause (a ∨ b) during a census: it adds one
// entry to the slot of each literal whose list is empty.
func (il *implLists) count(a, b Lit) {
	for _, l := range [2]Lit{a, b} {
		if int(l) < len(il.spans) && il.spans[l].n == 0 {
			il.spans[l].cap++
		}
	}
}

// reset empties every list and lays the slots out again back to back,
// in literal order within each region, without copying: the next load
// refills them, and the garbage of both regions is dropped.
func (il *implLists) reset() {
	slab, over := 0, 0
	all := il.all()
	for i := range all {
		sp := &all[i]
		sp.n = 0
		if sp.off&inOver != 0 {
			sp.off = uint32(over) | inOver
			over += int(sp.cap)
		} else {
			sp.off = uint32(slab)
			slab += int(sp.cap)
		}
	}
	il.slab, il.over = il.slab[:slab], il.over[:over]
	il.garbage = 0
	il.spans = il.spans[:0]
	il.sized = len(all)
}

// capWords returns the capacity of both regions in entries, one 4-byte
// word each: the storage the lists hold, slots and garbage alike.
func (il *implLists) capWords() int { return cap(il.slab) + cap(il.over) }
