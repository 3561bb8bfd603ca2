// Package lib is the dead-code guard's fixture library.
package lib

// Used is named by cmd/app.
func Used() int { return 1 }

// Unused is named only by a test file.
func Unused() int { return 2 }

// Kind is named only by its own methods' receivers.
type Kind int

// String is called by fmt through fmt.Stringer.
func (k Kind) String() string { return "kind" }

// Self names only itself.
func (k Kind) Self(n int) int {
	if n == 0 {
		return 0
	}
	return k.Self(n - 1)
}
