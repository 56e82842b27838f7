package sim

// RecomputeCandidates returns the candidate list recomputed from
// scratch: the per-processor scan over the current scheduling state,
// into a fresh slice. It reads and writes nothing the kernel caches, so
// a test can hold the kernel's reused list (Decision.Candidates)
// against it at any decision point.
func (s *System) RecomputeCandidates() []*Process {
	var fresh []*Process
	for i := range s.byProc {
		fresh = s.processorCandidates(fresh, i)
	}
	return fresh
}

// Resumes returns how many times the kernel has resumed a process
// coroutine, over every run of the system.
func (s *System) Resumes() int64 { return s.resumes }
