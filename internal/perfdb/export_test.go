package perfdb

import "io"

// SetChunkEvents overrides the chunk granularity (events per chunk) before
// recording starts, so a test can assert the memory bound tightly.
func (r *StreamRecorder) SetChunkEvents(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.w.perChunk = n
}

// VerifyArchive is the verify pass over r: every check, every event decoded
// into scratch, nothing kept.
func VerifyArchive(r io.Reader) error {
	_, err := scanArchive(r, nil)
	return err
}
