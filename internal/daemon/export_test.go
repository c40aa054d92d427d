package daemon

// Tick runs one sampling tick now, for tests outside the package that time it.
func (d *Daemon) Tick() { d.tick() }
