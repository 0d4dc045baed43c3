package experiments

// ByName returns the outcome for a variant name.
func (r *VariantsResult) ByName(name string) (VariantOutcome, bool) {
	for _, o := range r.Outcomes {
		if o.Name == name {
			return o, true
		}
	}
	return VariantOutcome{}, false
}
