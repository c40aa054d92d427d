package perfdb

// SetChunkEvents overrides the chunk granularity (events per chunk) before
// recording starts, so a test can assert the memory bound tightly.
func (r *StreamRecorder) SetChunkEvents(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.w.perChunk = n
}
