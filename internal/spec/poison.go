//go:build fepia_poison

package spec

// poisonSlabs is on: see the declaration in poison_off.go.
const poisonSlabs = true
