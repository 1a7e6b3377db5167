package optimize

// ForgetRestartDirections empties the restart-direction memo, so the next
// solve of every key draws its directions afresh.
func ForgetRestartDirections() { dirMemo.Store(nil) }
