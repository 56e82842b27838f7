// Package deep reaches the exporttest fixture only through wrap.
package deep

import "repro/internal/analysis/testdata/exporttest/wrap"

// Make makes counters.
var Make wrap.Maker = wrap.New
