//go:build race

package pared

func init() { raceEnabled = true }
