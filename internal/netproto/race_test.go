//go:build race

package netproto

// raceEnabled: the race detector allocates on its own account, so the
// allocation pins skip.
const raceEnabled = true
