package exporttest

// N exposes the count to the external test package.
func (c *Counter) N() int { return c.n }
