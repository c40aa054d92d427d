package wire

import (
	"bytes"
	"encoding/gob"
	"net"
	"testing"
	"time"
)

// fuzzFrame mirrors the shape every stack puts on the wire: peer identity,
// channel, seq/incarnation fencing fields, a payload, and its checksum.
type fuzzFrame struct {
	Daemon string
	Chan   string
	Seq    uint64
	Inc    uint64
	Data   []byte
	CRC    uint32
}

// FuzzWireFrame feeds arbitrary byte streams through the server-side frame
// read path (the ServerConn.Read every listener's serve loop runs on an
// accepted connection): garbage, truncations and bit flips must surface as
// decode errors or checksum mismatches — never a panic, never a hang past
// the read deadline.
func FuzzWireFrame(f *testing.F) {
	payload := []byte("span data")
	valid := fuzzFrame{
		Daemon: "paradynd@node0", Chan: ChanBulk, Seq: 3, Inc: 2,
		Data: payload, CRC: Checksum(payload),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&valid); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()
	f.Add(append([]byte(nil), enc...)) // well-formed frame
	f.Add(enc[:len(enc)/2])            // truncated mid-frame
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip in the middle
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd gob length prefix
	// What an accepted connection carries: frames back to back on one gob
	// stream (type descriptor once), the second cut short by a hang-up.
	buf.Reset()
	stream := gob.NewEncoder(&buf)
	stream.Encode(&valid)
	stream.Encode(&valid)
	f.Add(append([]byte(nil), buf.Bytes()[:buf.Len()-3]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		go func() {
			client.Write(data)
			client.Close() // sender gone: reader sees EOF, not a hang
		}()
		defer server.Close()
		srv := &Server{readTimeout: 2 * time.Second}
		c := srv.newConn(server)
		for {
			var fr fuzzFrame
			if c.Read(&fr) != nil {
				break // rejected cleanly
			}
			// Whatever decoded, the checksum the stacks verify before
			// applying a chunk must be computable over it.
			Checksum(fr.Data)
		}
		if st := srv.Stats(); st.ReadTimeouts != 0 {
			t.Errorf("a closed stream was counted as a wedged peer: %+v", st)
		}
	})
}
