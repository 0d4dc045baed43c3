package tcp

import "fmt"

// ParseVariant maps a variant name (as produced by String) back to its
// enum value.
func ParseVariant(name string) (Variant, error) {
	for _, v := range Variants() {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("tcp: unknown variant %q", name)
}
