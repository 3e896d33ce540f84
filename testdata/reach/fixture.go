// Package reachfixture is the module reach_test.go runs the
// reachability scan over. Each function is one case of the scan.
package reachfixture

import "reachfixture/internal/shapes"

// Run is the public API, the scan's root.
func Run() float64 {
	shapes.Solve()
	var s shapes.Shape = shapes.Square{Side: 2}
	scale := shapes.Square{Side: 1}.Scale
	var st shapes.Stack[float64]
	st.Push(s.Area())
	return scale(3)
}
