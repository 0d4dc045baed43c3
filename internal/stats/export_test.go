package stats

// Values returns a copy of the sorted backing sample.
func (c *CDF) Values() []float64 {
	out := make([]float64, len(c.sorted))
	copy(out, c.sorted)
	return out
}
