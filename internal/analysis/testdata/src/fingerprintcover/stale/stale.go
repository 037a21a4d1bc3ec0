// Package stale is a fingerprintcover fixture for exclusion-list rot:
// entries that no longer name a field, and entries contradicting the
// hash.
package stale

import "strconv"

type Spec struct {
	Seed   uint64
	Rounds int
}

var fingerprintExcluded = []string{
	"Rounds",   // want "fingerprintcover: Spec field Rounds is both hashed by Fingerprint and listed in fingerprintExcluded"
	"Departed", // want "fingerprintcover: fingerprintExcluded names \"Departed\", which is not a Spec field"
}

func (s *Spec) Fingerprint() string {
	return strconv.FormatUint(s.Seed, 10) + strconv.Itoa(s.Rounds)
}
