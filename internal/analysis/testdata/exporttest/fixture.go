// Package exporttest is the loader's fixture for the export_test.go
// idiom: export_test.go gives the package's test build a method that the
// external test package calls on counters from wrap, whose declarations
// name this package's type, and from wrap/deep, whose declarations reach
// it only through wrap.
package exporttest

// Counter counts.
type Counter struct{ n int }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }
