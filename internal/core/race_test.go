//go:build race

package core

// Under the race detector the compiler no longer fuses
// append(s, make([]T, n)...) — the body of slices.Grow — into one
// allocation, so a growth allocates its new capacity twice.
func init() { growthAllocs = 2 }
