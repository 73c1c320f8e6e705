package sat

// ImplicationLists returns the length and the capacity of each of the
// solver's implication lists, indexed by literal.
func ImplicationLists(s *Solver) (lens, caps []int) {
	for _, sp := range s.bins.spans {
		lens = append(lens, int(sp.n))
		caps = append(caps, int(sp.cap))
	}
	return lens, caps
}
