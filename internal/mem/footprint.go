package mem

// AccessKind classifies one atomic statement's shared-memory effect,
// the granularity at which the explorer reasons about commutation.
type AccessKind int

// Access kinds.
const (
	// AccessLocal is a counted local statement: no shared object.
	AccessLocal AccessKind = iota + 1
	// AccessRead is an atomic shared read.
	AccessRead
	// AccessWrite is an atomic shared write.
	AccessWrite
	// AccessCons is a consensus-object (or primitive CAS) invocation: a
	// read-modify-write whose response depends on invocation order.
	AccessCons
)

// String returns a short mnemonic for the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessLocal:
		return "local"
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessCons:
		return "cons"
	default:
		return "?"
	}
}

// Footprint is the canonical description of one atomic statement's
// shared-memory access: which object it touches (by stable id), the
// cell index within a named array (-1 for scalars), and how. Local
// statements carry the zero object id and AccessLocal. Exported
// frontiers persist footprints (a reduced item's sleep set), so the
// JSON tags and the AccessKind values are a file format.
type Footprint struct {
	// Obj is the object's canonical id (a stable hash of its name),
	// identical across runs of the same workload. 0 for local statements.
	Obj uint64 `json:"obj"`
	// Cell is the index within a named array, -1 for scalar objects and
	// local statements.
	Cell int `json:"cell"`
	// Kind is the access kind.
	Kind AccessKind `json:"kind"`
}

// Commutes reports whether two statements with these footprints can be
// executed in either order with the same effect on shared memory:
// accesses to distinct objects always commute, two reads of the same
// object commute, and everything else conflicts. A consensus invocation
// never commutes with any access to the same object — the first
// invocation decides, so order is the whole semantics. The zero
// footprint (and AccessLocal) touches nothing and commutes with all.
func (f Footprint) Commutes(g Footprint) bool {
	if f.Obj == 0 || g.Obj == 0 {
		return true
	}
	if f.Obj != g.Obj {
		return true
	}
	return f.Kind == AccessRead && g.Kind == AccessRead
}

// fnv-1a, the stable object-name hash behind canonical object ids.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// HashName returns the canonical object id for a diagnostic name: a
// 64-bit FNV-1a hash, stable across runs, processes, and machines.
func HashName(name string) uint64 {
	h := fnvOffset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	if h == 0 {
		h = fnvPrime // reserve 0 for "no object"
	}
	return h
}

// Mix folds v into h, the single mixing primitive behind every
// fingerprint in the simulator: splitmix64's output finalizer (two
// multiply–xorshift rounds) applied to h ^ v plus splitmix64's
// increment. Every step is a bijection, so for a fixed h distinct
// values mix to distinct results. It is deliberately order sensitive;
// order-independent combinations XOR the mixed terms. Fingerprints are
// compared only within one process, never persisted, so the function
// may change between versions.
func Mix(h, v uint64) uint64 {
	z := (h ^ v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
