//go:build !race

package simmpi

const RaceEnabled = false
