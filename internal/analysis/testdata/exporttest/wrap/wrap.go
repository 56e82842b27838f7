// Package wrap hands out the exporttest fixture's counters.
package wrap

import "repro/internal/analysis/testdata/exporttest"

// A Maker makes counters.
type Maker func() *exporttest.Counter

// New returns a fresh counter.
func New() *exporttest.Counter { return &exporttest.Counter{} }
