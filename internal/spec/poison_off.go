//go:build !fepia_poison

package spec

// poisonSlabs is the workspace test hook, on in builds tagged
// fepia_poison: reset overwrites every slab with junk instead of zeroes,
// and a new backing array starts as junk, so a value kept past Reset or
// a slot read before it is written shows up as a NaN or a junk name in
// the answer. Off, the compiler drops the poisoning code.
const poisonSlabs = false
