package sat

import "math"

// This file implements the flat clause arena backing the solver's
// clause database. Instead of one heap object per clause chased through
// pointer-typed watch lists, every clause lives inline in a single
// []uint32 and is addressed by a ClauseRef offset:
//
//	word 0:            header — size (bits 0..21), learnt flag (bit 22),
//	                   LBD clamped to 255 (bits 24..31)
//	word 1 (learnt):   activity as float32 bits
//	following words:   the literals, one per word
//
// The layout keeps propagation cache-friendly (the header and the
// watched literals share a cache line), shrinks a watch entry to 8
// bytes, and makes the whole database one allocation that Reset can
// retain across solves. Deleted clauses leave dead words behind;
// reduceDB compacts the arena once the dead fraction passes a
// threshold, relocating live clauses and patching watch lists and
// reason references through forwarding words.
//
// Only clauses of three or more literals live here. A binary clause
// (a ∨ b) is two implication-list entries, b in a's list and a in b's
// (see implication.go), and a reason or conflict on it is a tagged
// ClauseRef: the top bit set, the clause's other literal in the low 31
// bits. Arena offsets therefore stay below 2^31 (alloc panics past
// that), and propagation, conflict analysis and compaction never read
// the arena for a binary clause.
type ClauseRef = uint32

// RefUndef is the null clause reference ("no clause"), the arena
// analogue of a nil *clause.
const RefUndef ClauseRef = ^ClauseRef(0)

// refBin tags a ClauseRef that names a binary clause by its other
// literal instead of an arena offset. RefUndef has the tag bit set too;
// it would name the literal 2^31-1, which NewVar's variable limit keeps
// out of the solver, so a tagged ref never equals RefUndef.
const refBin ClauseRef = 1 << 31

// binRef is the tagged reference to a binary clause whose other literal
// is l: the reason of a literal implied through the clause, or a
// conflict on it.
func binRef(l Lit) ClauseRef { return refBin | ClauseRef(l) }

// isBinRef reports whether r, a reference other than RefUndef, names a
// binary clause.
func isBinRef(r ClauseRef) bool { return r&refBin != 0 }

// binLit returns the literal held by a binary-clause reference.
func binLit(r ClauseRef) Lit { return Lit(r &^ refBin) }

// Header word layout.
const (
	hdrSizeBits  = 22
	hdrSizeMask  = 1<<hdrSizeBits - 1 // 4M literals per clause
	hdrLearntBit = 1 << hdrSizeBits
	hdrLBDShift  = 24
	hdrLBDMax    = 255
)

// clauseArena is the flat clause store. The zero value is ready to use.
type clauseArena struct {
	data []uint32
	// wasted counts the words occupied by freed clauses; compact()
	// reclaims them.
	wasted int
	// collections and freedWords count compactions and reclaimed words
	// since the owning solver was created or last Reset.
	collections int64
	freedWords  int64
}

func (ca *clauseArena) reset() {
	ca.data = ca.data[:0]
	ca.wasted = 0
	ca.collections = 0
	ca.freedWords = 0
}

// alloc appends a clause and returns its reference. The literal slice
// is copied; the caller may reuse it.
func (ca *clauseArena) alloc(lits []Lit, learnt bool, lbd int32) ClauseRef {
	if len(lits) > hdrSizeMask {
		panic("sat: clause exceeds arena size limit")
	}
	// Header words included, the clause must end below the tag bit.
	if int64(len(ca.data))+2+int64(len(lits)) > int64(refBin) {
		panic("sat: clause arena exceeds 2^31 words")
	}
	r := ClauseRef(len(ca.data))
	hdr := uint32(len(lits))
	if learnt {
		hdr |= hdrLearntBit
	}
	if lbd > hdrLBDMax {
		lbd = hdrLBDMax
	}
	hdr |= uint32(lbd) << hdrLBDShift
	ca.data = append(ca.data, hdr)
	if learnt {
		ca.data = append(ca.data, 0) // activity 0.0
	}
	for _, l := range lits {
		ca.data = append(ca.data, uint32(l))
	}
	return r
}

func (ca *clauseArena) size(r ClauseRef) int { return int(ca.data[r] & hdrSizeMask) }

func (ca *clauseArena) learnt(r ClauseRef) bool { return ca.data[r]&hdrLearntBit != 0 }

// lbd returns the clause's literal-block distance (clamped to 255 at
// alloc time, which preserves every "glue" comparison the deletion
// policy makes).
func (ca *clauseArena) lbd(r ClauseRef) int32 { return int32(ca.data[r] >> hdrLBDShift) }

func (ca *clauseArena) act(r ClauseRef) float32 {
	return math.Float32frombits(ca.data[r+1])
}

func (ca *clauseArena) setAct(r ClauseRef, a float32) {
	ca.data[r+1] = math.Float32bits(a)
}

// headerWords returns the number of words preceding the literals.
func (ca *clauseArena) headerWords(r ClauseRef) int {
	if ca.learnt(r) {
		return 2
	}
	return 1
}

// lits returns the clause's literal words as a mutable view into the
// arena (each word is a Lit stored as uint32). The view is invalidated
// by alloc and compact.
func (ca *clauseArena) lits(r ClauseRef) []uint32 {
	off := int(r) + ca.headerWords(r)
	return ca.data[off : off+ca.size(r)]
}

// words returns the clause's total footprint in arena words.
func (ca *clauseArena) words(r ClauseRef) int {
	return ca.headerWords(r) + ca.size(r)
}

// free marks the clause's words as garbage. The words stay in place
// (nothing references them any more) until the next compaction.
func (ca *clauseArena) free(r ClauseRef) { ca.wasted += ca.words(r) }

// needsCompaction reports whether at least a fifth of the arena is
// garbage — the MiniSat-style trigger used by reduceDB.
func (ca *clauseArena) needsCompaction() bool {
	return ca.wasted > 0 && ca.wasted > len(ca.data)/5
}

// relocate copies clause r to the end of dst, overwrites r's header
// with a forwarding word holding the new reference, and returns the
// new reference. Callers must relocate every live clause exactly once
// and then resolve all remaining references through forward.
func (ca *clauseArena) relocate(dst *[]uint32, r ClauseRef) ClauseRef {
	n := ca.words(r)
	nr := ClauseRef(len(*dst))
	*dst = append(*dst, ca.data[int(r):int(r)+n]...)
	ca.data[r] = uint32(nr)
	return nr
}

// forward resolves a reference to a clause already relocated by
// relocate during the current compaction.
func (ca *clauseArena) forward(r ClauseRef) ClauseRef { return ca.data[r] }

// garbageCollect compacts the arena: live clauses (exactly the members
// of s.clauses and s.learnts — reason clauses are always locked and
// therefore live) are relocated into a fresh arena and every watch and
// arena reason reference is patched through the forwarding words.
// Binary reasons hold a literal, not an offset, and stay as they are.
func (s *Solver) garbageCollect() {
	ca := &s.ca
	dst := make([]uint32, 0, len(ca.data)-ca.wasted)
	for i, r := range s.clauses {
		s.clauses[i] = ca.relocate(&dst, r)
	}
	for i, r := range s.learnts {
		s.learnts[i] = ca.relocate(&dst, r)
	}
	for l := range s.watches {
		ws := s.watches[l]
		for i := range ws {
			ws[i].ref = ca.forward(ws[i].ref)
		}
	}
	for v := range s.reason {
		if r := s.reason[v]; r != RefUndef && !isBinRef(r) {
			s.reason[v] = ca.forward(r)
		}
	}
	ca.freedWords += int64(len(ca.data) - len(dst))
	ca.data = dst
	ca.wasted = 0
	ca.collections++
}

// ArenaStats is a point-in-time view of the clause arena, the raw
// material of the sat.arena.* observability gauges.
type ArenaStats struct {
	// Words is the arena length (live + garbage), CapWords its backing
	// capacity, WastedWords the garbage portion awaiting compaction.
	Words, CapWords, WastedWords int
	// WatchCapWords is the total backing capacity of the per-literal
	// watch and binary implication lists in 4-byte words: a watch entry
	// is two words, a binary entry one. It counts every list the solver
	// retains, those a Reset kept beyond the current variables included.
	// Together with CapWords it approximates the memory a pooled solver
	// retains for its next use — the quantity Pool.MaxRetainedWords caps.
	WatchCapWords int
	// Clauses and Learnts count the live problem and learnt clauses,
	// binary ones included (NumClauses and NumLearnts).
	Clauses, Learnts int
	// Collections and FreedWords count compactions and reclaimed words
	// since the solver was created or last Reset.
	Collections, FreedWords int64
}

// ArenaStats returns the current clause-arena statistics.
func (s *Solver) ArenaStats() ArenaStats {
	watchCap := s.bins.capWords()
	for _, ws := range s.watches[:cap(s.watches)] {
		watchCap += cap(ws) * 2
	}
	return ArenaStats{
		Words:         len(s.ca.data),
		CapWords:      cap(s.ca.data),
		WastedWords:   s.ca.wasted,
		WatchCapWords: watchCap,
		Clauses:       s.NumClauses(),
		Learnts:       s.NumLearnts(),
		Collections:   s.ca.collections,
		FreedWords:    s.ca.freedWords,
	}
}
