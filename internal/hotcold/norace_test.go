//go:build !race

package hotcold_test

const raceEnabled = false
