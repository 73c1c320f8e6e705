package sat

// ImplicationLists returns the length and the capacity of each of the
// solver's implication lists, indexed by literal.
func ImplicationLists(s *Solver) (lens, caps []int) {
	for _, qs := range s.bins {
		lens = append(lens, len(qs))
		caps = append(caps, cap(qs))
	}
	return lens, caps
}
