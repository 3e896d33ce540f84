// Package shapes holds the fixture's cases.
package shapes

// Solve is called by Run.
func Solve() {}

// Grid has a method named like the called Solve.
type Grid struct{}

// Solve is dead: nothing calls it.
func (Grid) Solve() {}

// Shape is the interface Run calls Area through.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{ Side float64 }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Scale is reached as a method value.
func (s Square) Scale(k float64) float64 { return s.Side * k }

// Stack is a generic type.
type Stack[T any] struct{ items []T }

// Push is reached through an instance of Stack.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Kernel is reached by no program code; an allowlist entry keeps it.
func Kernel() int { return helper() }

// helper is reached through Kernel.
func helper() int { return 1 }
