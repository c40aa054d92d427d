package session

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pperf/internal/datasource"
	"pperf/internal/packed"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

// randomShard generates a shard exercising the codec's paths: repeated and
// fresh dictionary strings, spans that name another track than the shard's,
// Seq and Start stepping backwards, End before Start, negative tags, and
// values out at the ends of the 64-bit range.
func randomShard(rng *rand.Rand, n int) trace.Shard {
	procs := []string{"prog{0}", "prog{1}", "paradynd@node0", ""}
	nodes := []string{"node0", "node1", ""}
	names := []string{"MPI_Send", "MPI_Recv", "compute", "msg", "rendezvous", `quo"ted<&>`, ""}
	objs := []string{"MPI_COMM_WORLD", "win-3", ""}
	edge := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	pick := func(small int64) int64 {
		if rng.Intn(6) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return small
	}
	sh := trace.Shard{
		Daemon:     []string{"paradynd@node0", "paradynd@node1", ""}[rng.Intn(3)],
		Proc:       procs[rng.Intn(len(procs))],
		Node:       nodes[rng.Intn(len(nodes))],
		Dropped:    pick(int64(rng.Intn(100))),
		OutboxLost: pick(int64(rng.Intn(100))),
	}
	if n > 0 {
		sh.Spans = make([]trace.Span, n)
	}
	var seq uint64
	var start int64
	for i := range sh.Spans {
		seq += uint64(pick(int64(rng.Intn(9) - 2))) // mostly forward, sometimes back, sometimes wild
		start += pick(int64(rng.Intn(2_000_000) - 500_000))
		sh.Spans[i] = trace.Span{
			Seq:   seq,
			Kind:  trace.Kind(rng.Intn(int(trace.MarkEvent) + 1)),
			Proc:  sh.Proc,
			Node:  sh.Node,
			Name:  names[rng.Intn(len(names))],
			Start: sim.Time(start),
			End:   sim.Time(start + pick(int64(rng.Intn(5000)-1000))),
			Depth: int(pick(int64(rng.Intn(4)))),
			Peer:  procs[rng.Intn(len(procs))],
			Tag:   int(pick(int64(rng.Intn(200) - 100))),
			Bytes: int(pick(int64(rng.Intn(1 << 20)))),
			Obj:   objs[rng.Intn(len(objs))],
			Flow:  uint64(pick(int64(rng.Intn(50)))),
			Wait:  rng.Intn(2) == 0,
		}
		if rng.Intn(5) == 0 { // a hand-built shard may carry another track's spans
			sh.Spans[i].Proc = procs[rng.Intn(len(procs))]
			sh.Spans[i].Node = nodes[rng.Intn(len(nodes))]
		}
	}
	return sh
}

// randomBatch generates a finite-valued sample batch over a small vocabulary.
func randomBatch(rng *rand.Rand, n int) []datasource.Sample {
	metrics := []string{"sync_wait", "cpu", "msg_bytes_sent", ""}
	paths := []string{"/Code", "/Code/a.c/f", "/Machine/node0", ""}
	batch := make([]datasource.Sample, n)
	t := sim.Time(0)
	for i := range batch {
		t += sim.Time(rng.Intn(2_000_000) - 500_000)
		batch[i] = datasource.Sample{
			Metric: metrics[rng.Intn(len(metrics))],
			Focus: resource.Focus{
				CodePath:    paths[rng.Intn(len(paths))],
				MachinePath: paths[rng.Intn(len(paths))],
				SyncPath:    paths[rng.Intn(len(paths))],
			},
			Proc:  fmt.Sprintf("app{%d}", rng.Intn(3)),
			Time:  t,
			Delta: rng.NormFloat64() * 1000,
			Value: rng.NormFloat64() * 1e9,
		}
	}
	return batch
}

// The shard codec lives in internal/trace; its tests stay here, beside the
// sample codec's, driving it the way this package's consumers do (one string
// table per reader, shared with the reader's sample batches).
func packShard(sh trace.Shard) []byte { return new(trace.Packer).PackShard(nil, &sh) }

func unpackShard(data []byte) (trace.Shard, error) {
	return trace.UnpackShard(new(packed.Table), data)
}

// Every shard the type can express and the codec accepts — the shapes the
// daemons produce and the ones only a test would build — comes back equal.
func TestPackShardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shards := []trace.Shard{
		{}, // empty
		{Daemon: "paradynd@node1", Proc: "prog{3}", Node: "node1", Dropped: 7, OutboxLost: 9}, // drop-only
		{Proc: "prog{0}", Spans: []trace.Span{{Seq: math.MaxUint64, Start: math.MinInt64, End: math.MaxInt64}, {Seq: 0, Start: math.MaxInt64, End: math.MinInt64}}},
	}
	for i := 0; i < 300; i++ {
		shards = append(shards, randomShard(rng, rng.Intn(80)))
	}
	var pk trace.Packer
	var up Unpacker
	var buf []byte
	for i, sh := range shards {
		buf = pk.PackShard(buf[:0], &sh)
		got, err := trace.UnpackShard(&up.Table, buf)
		if err != nil {
			t.Fatalf("shard %d: unpack: %v", i, err)
		}
		if !reflect.DeepEqual(got, sh) {
			t.Fatalf("shard %d round-tripped to a different shard:\nwant %+v\ngot  %+v", i, sh, got)
		}
		if fresh, err := unpackShard(buf); err != nil || !reflect.DeepEqual(fresh, sh) {
			t.Fatalf("shard %d decodes differently through a fresh string table (err %v)", i, err)
		}
		// The packed form the planes move: opened from the bytes, it carries
		// them unchanged, and materialises to the same shard.
		opened, err := trace.OpenShard(&up.Table, buf)
		if err != nil || opened.Spans != nil || opened.Len() != len(sh.Spans) || !bytes.Equal(opened.Packed(), buf) {
			t.Fatalf("shard %d: OpenShard: err %v, %d spans, bytes equal %v", i, err, opened.Len(), bytes.Equal(opened.Packed(), buf))
		}
		if opened.Daemon != sh.Daemon || opened.Proc != sh.Proc || opened.Node != sh.Node || opened.Dropped != sh.Dropped || opened.OutboxLost != sh.OutboxLost {
			t.Fatalf("shard %d: OpenShard header %+v, want %+v", i, opened, sh)
		}
	}
}

// A shard of the shape daemons ship — one track, record order, a small
// vocabulary — packs to a fraction of the 66 bytes per span gob spent.
func TestPackShardCompactsRepetition(t *testing.T) {
	sh := trace.Shard{Daemon: "paradynd@node0", Proc: "prog{0}", Node: "node0"}
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * sim.Time(40*sim.Microsecond)
		sh.Spans = append(sh.Spans, trace.Span{
			Seq: uint64(3 * i), Kind: trace.MPISpan, Proc: sh.Proc, Node: sh.Node, Name: "MPI_Send",
			Start: at, End: at + sim.Time(3*sim.Microsecond), Peer: "1", Tag: 7, Bytes: 4, Obj: "MPI_COMM_WORLD",
		})
	}
	if per := float64(len(packShard(sh))) / float64(len(sh.Spans)); per > 20 {
		t.Errorf("a daemon-shaped shard packs to %.1f bytes per span, want at most 20", per)
	}
}

func TestUnpackShardRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valid := packShard(randomShard(rng, 32))
	// The trailing-bytes check makes every proper prefix an error.
	for n := 0; n < len(valid); n++ {
		if _, err := unpackShard(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	if _, err := unpackShard(append(append([]byte(nil), valid...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("a trailing byte: err = %v, want a trailing-bytes error", err)
	}
	// Flipped bytes must never panic (many still decode, to other spans).
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		unpackShard(mut)
	}

	one := packShard(trace.Shard{Spans: []trace.Span{{Kind: trace.MarkEvent}}})
	kindAt := len(one) - 13 // the span record is 13 one-byte fields, kind first
	if one[kindAt] != byte(trace.MarkEvent)<<1 {
		t.Fatalf("span record not where the test expects it: % x", one)
	}
	one[kindAt] = byte(trace.MarkEvent+1) << 1
	if _, err := unpackShard(one); err == nil || !strings.Contains(err.Error(), "unknown span kind") {
		t.Errorf("a span of kind %d: err = %v, want an unknown-kind error", trace.MarkEvent+1, err)
	}
	// A count the input cannot hold is refused before anything is allocated
	// for it: a million spans claimed by eight bytes.
	if _, err := unpackShard([]byte{0xc0, 0x84, 0x3d, 0, 0, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), "records in") {
		t.Errorf("an impossible span count: err = %v, want the count refused", err)
	}
}

// The steady state of both planes: a warmed packer appends bytes and
// allocates nothing; a reader that has met a blob's strings allocates the
// decoded slice and nothing else.
func TestPackedFormsAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sh, batch := randomShard(rng, 200), randomBatch(rng, 24)
	var pk Packer
	var spk trace.Packer
	shardBytes := spk.PackShard(nil, &sh)
	batchBytes := pk.PackSamples(nil, batch)
	if n := testing.AllocsPerRun(100, func() { shardBytes = spk.PackShard(shardBytes[:0], &sh) }); n != 0 {
		t.Errorf("packing a shard through a warmed packer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { batchBytes = pk.PackSamples(batchBytes[:0], batch) }); n != 0 {
		t.Errorf("packing a batch through a warmed packer: %v allocs, want 0", n)
	}

	var up Unpacker
	if _, err := trace.UnpackShard(&up.Table, shardBytes); err != nil {
		t.Fatal(err)
	}
	var got trace.Shard
	if n := testing.AllocsPerRun(100, func() { got, _ = trace.UnpackShard(&up.Table, shardBytes) }); n != 1 || len(got.Spans) != 200 {
		t.Errorf("unpacking a shard of known strings: %v allocs for %d spans, want 1 (the span slice)", n, len(got.Spans))
	}
	// The forms the planes use: opening is the verifying walk plus the one
	// exact-size copy, verifying and iterating keep nothing.
	if n := testing.AllocsPerRun(100, func() { got, _ = trace.OpenShard(&up.Table, shardBytes) }); n != 1 || got.Len() != 200 || cap(got.Packed()) != len(shardBytes) {
		t.Errorf("opening a shard of known strings: %v allocs, %d spans, %d bytes kept for %d; want 1 alloc of exactly the bytes", n, got.Len(), cap(got.Packed()), len(shardBytes))
	}
	count := 0
	if n := testing.AllocsPerRun(100, func() {
		var s trace.Span
		for c, _ := trace.ReadShard(&up.Table, shardBytes); c.Next(&s); {
			count++
		}
	}); n != 0 || count != 101*200 {
		t.Errorf("iterating a shard of known strings: %v allocs, %d spans visited; want 0 and %d", n, count, 101*200)
	}
	if n := testing.AllocsPerRun(100, func() { trace.VerifyShard(shardBytes) }); n != 0 {
		t.Errorf("verifying a shard: %v allocs, want 0", n)
	}

	// A reader that hands its last batch back decodes into it: with the
	// strings known and the capacity there, nothing is allocated, and a
	// larger scratch full of another batch's records leaves no trace.
	scratch := randomBatch(rng, 40)
	var into []datasource.Sample
	if n := testing.AllocsPerRun(100, func() { into, _ = up.UnpackSamplesInto(scratch, batchBytes) }); n != 0 {
		t.Errorf("unpacking a batch of known strings into a large enough slice: %v allocs, want 0", n)
	}
	if !reflect.DeepEqual(into, batch) || &into[0] != &scratch[0] {
		t.Errorf("UnpackSamplesInto returned %d samples (shared backing array: %v), want the packed %d in the scratch", len(into), &into[0] == &scratch[0], len(batch))
	}
	if fresh, _ := up.UnpackSamplesInto(scratch[:0:3], batchBytes); !reflect.DeepEqual(fresh, batch) || &fresh[0] == &scratch[0] {
		t.Error("a scratch that is too small must be left alone and the batch decoded into a fresh slice")
	}

	// An event section the same: packed through a warmed packer and decoded
	// into a scratch that holds it, it costs nothing.
	evs := randomEvents(rng, 30)
	evBytes := pk.PackEvents(nil, evs)
	if n := testing.AllocsPerRun(100, func() { evBytes = pk.PackEvents(evBytes[:0], evs) }); n != 0 {
		t.Errorf("packing an event section through a warmed packer: %v allocs, want 0", n)
	}
	evScratch, _ := up.UnpackEventsInto(nil, evBytes)
	if n := testing.AllocsPerRun(100, func() { evScratch, _ = up.UnpackEventsInto(evScratch, evBytes) }); n != 0 || !reflect.DeepEqual(evScratch, evs) {
		t.Errorf("unpacking an event section of known strings into its scratch: %v allocs, want 0", n)
	}
}

// The string table is capped: a reader fed ever-fresh names still decodes
// every one of them, and what it keeps stops growing.
func TestUnpackerStringTableIsCapped(t *testing.T) {
	var pk trace.Packer
	var up Unpacker
	var buf []byte
	var first, last trace.Shard
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("prog{%d}", i)
		sh := trace.Shard{Daemon: "paradynd@node0", Proc: name, Node: "node0", Spans: []trace.Span{{Proc: name, Name: name}}}
		buf = pk.PackShard(buf[:0], &sh)
		got, err := trace.UnpackShard(&up.Table, buf)
		if err != nil || !reflect.DeepEqual(got, sh) {
			t.Fatalf("shard %d through a full table: %+v, err %v", i, got, err)
		}
		if i == 0 {
			first = got
		}
		last = got
	}
	again, err := trace.UnpackShard(&up.Table, buf) // the last shard once more
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(again.Proc) == unsafe.StringData(last.Proc) {
		t.Errorf("a name met after %d distinct names is shared: the table grew past the cap %d", 10000, packed.MaxInterned)
	}
	if unsafe.StringData(first.Daemon) != unsafe.StringData(last.Daemon) {
		t.Error("a name met before the table filled is no longer shared")
	}
}

// FuzzUnpackSamples: the sample decoder must be total.
func FuzzUnpackSamples(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 30} {
		f.Add(new(Packer).PackSamples(nil, randomBatch(rng, n)))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var up Unpacker
		batch, err := up.UnpackSamplesInto(nil, data)
		if err != nil {
			return
		}
		// A clean decode must re-encode losslessly (bit-exact floats), and
		// decode the same when every string is already in the table.
		again, err := up.UnpackSamplesInto(nil, new(Packer).PackSamples(nil, batch))
		if err != nil || len(again) != len(batch) {
			t.Fatalf("re-encode of a clean decode failed: %v (%d vs %d samples)", err, len(again), len(batch))
		}
		for i, a := range batch {
			b := again[i]
			if a.Metric != b.Metric || a.Focus != b.Focus || a.Proc != b.Proc || a.Time != b.Time ||
				math.Float64bits(a.Delta) != math.Float64bits(b.Delta) || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
				t.Errorf("sample %d: %+v decoded as %+v through a warm table", i, a, b)
			}
		}
	})
}

// FuzzUnpackShard: the shard decoder must be total — truncations and bit
// flips of a real shard, and whatever the fuzzer grows from them, decode or
// error, never panic, and never allocate more spans than the input could
// hold.
func FuzzUnpackShard(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	real := packShard(randomShard(rng, 40))
	f.Add(real)
	f.Add(packShard(trace.Shard{}))
	for _, n := range []int{1, len(real) / 3, len(real) - 1} {
		f.Add(real[:n])
	}
	for _, i := range []int{0, 1, len(real) / 2, len(real) - 1} {
		mut := append([]byte(nil), real...)
		mut[i] ^= 0x55
		f.Add(mut)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var up Unpacker
		sh, err := trace.UnpackShard(&up.Table, data)
		// One decoder under three uses: the verifying walk, the collecting
		// decode and an iteration agree on whether the bytes are a shard, on
		// why not, and on how many spans they hold.
		visited := 0
		c, walked := trace.ReadShard(&up.Table, data)
		for s := new(trace.Span); c.Next(s); {
			visited++
		}
		walkErr, bareErr := c.Close(), trace.VerifyShard(data)
		opened, openErr := trace.OpenShard(new(packed.Table), data)
		for _, other := range []error{walkErr, bareErr, openErr} {
			if (err == nil) != (other == nil) || err != nil && err.Error() != other.Error() {
				t.Fatalf("the decodes disagree: collecting %v, iterating %v, verifying %v, opening %v", err, walkErr, bareErr, openErr)
			}
		}
		if err != nil {
			return
		}
		if visited != len(sh.Spans) || opened.Len() != len(sh.Spans) || !bytes.Equal(opened.Packed(), data) {
			t.Fatalf("%d spans collected, %d visited, %d in the opened shard (bytes kept: %v)", len(sh.Spans), visited, opened.Len(), bytes.Equal(opened.Packed(), data))
		}
		if walked.Daemon != sh.Daemon || walked.Proc != sh.Proc || walked.Node != sh.Node || walked.Dropped != sh.Dropped || walked.OutboxLost != sh.OutboxLost {
			t.Fatalf("the walk read header %+v, the collecting decode %+v", walked, sh)
		}
		if len(sh.Spans) > len(data)/13 {
			t.Fatalf("%d spans decoded from %d bytes", len(sh.Spans), len(data))
		}
		again, err := trace.UnpackShard(&up.Table, packShard(sh))
		if err != nil || !reflect.DeepEqual(again, sh) {
			t.Fatalf("re-encode of a clean decode came back different (err %v):\nwant %+v\ngot  %+v", err, sh, again)
		}
	})
}

// randomEvents generates events of every kind an event section carries, the
// odd unnamed kind among them, with any scalar field of the flat union set
// whatever the kind: a small vocabulary with "" in it and integers out at the
// ends of the 64-bit range.
func randomEvents(rng *rand.Rand, n int) []Event {
	kinds := []EventKind{EvUpdate, EvEnable, EvStale, EvUndelivered, EvBarrier, EvGap, EventKind(-3), EventKind(42)}
	words := []string{"/Code/a.c/f", "/Machine/node0/app{0}", "paradynd@node1", "sync_wait", "daemon refused", `quo"ted`, "", ""}
	edge := []int64{0, 0, 1, -1, 7, math.MaxInt64, math.MinInt64}
	str := func() string { return words[rng.Intn(len(words))] }
	num := func() int64 {
		if rng.Intn(3) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return rng.Int63n(2e9) - 1e9
	}
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Kind: kinds[rng.Intn(len(kinds))],
			Update: datasource.Update{Kind: datasource.UpdateKind(num()), Path: str(), Display: str(), Proc: str(),
				Caller: str(), Callee: str(), Time: sim.Time(num()), Daemon: str()},
			Metric: str(),
			Focus:  resource.Focus{CodePath: str(), MachinePath: str(), SyncPath: str()},
			Err:    str(), Proc: str(), N: num(),
			Gap: datasource.Gap{Node: str(), From: sim.Time(num()), To: sim.Time(num())},
		}
		if rng.Intn(3) == 0 {
			evs[i] = Event{Kind: EvBarrier}
		}
	}
	return evs
}

// Every event the section carries comes back equal, field for field, through
// a warm string table and a fresh one, into a scratch that held other events.
func TestPackEventsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var pk Packer
	var up Unpacker
	var buf []byte
	scratch := randomEvents(rng, 64)
	for _, n := range []int{0, 1, 2, 17, 60} {
		evs := randomEvents(rng, n)
		buf = pk.PackEvents(buf[:0], evs)
		got, err := up.UnpackEventsInto(scratch, buf)
		if err != nil {
			t.Fatalf("%d events: %v", n, err)
		}
		if len(got) != len(evs) || n > 0 && !reflect.DeepEqual(got, evs) {
			t.Fatalf("%d events round-tripped to %d different ones:\nwant %+v\ngot  %+v", n, len(got), evs, got)
		}
		if fresh, err := new(Unpacker).UnpackEventsInto(nil, buf); err != nil || n > 0 && !reflect.DeepEqual(fresh, evs) {
			t.Fatalf("%d events decode differently through a fresh string table (err %v)", n, err)
		}
	}
	// A barrier is its kind and an empty field mask.
	if got := pk.PackEvents(nil, []Event{{Kind: EvBarrier}, {Kind: EvBarrier}}); len(got) != 2+2*2 {
		t.Errorf("two barriers pack to %d bytes (% x), want 6", len(got), got)
	}
}

func TestUnpackEventsRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	valid := new(Packer).PackEvents(nil, randomEvents(rng, 12))
	for n := 0; n < len(valid); n++ { // the trailing-bytes check makes every proper prefix an error
		if _, err := new(Unpacker).UnpackEventsInto(nil, valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	for i := range valid { // flipped bytes never panic
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		new(Unpacker).UnpackEventsInto(nil, mut)
	}
	one := func(kind EventKind, rec ...byte) []byte { // n=1, dictionary {"x"}, then the record
		return append([]byte{1, 1, 1, 'x', byte(kind << 1)}, rec...)
	}
	for _, tc := range []struct {
		name, data, want string
	}{
		{"samples kind", string(one(EvSamples, 0)), "samples event with field mask 0x0 at record 0"},
		{"shard kind", string(one(EvShard, 0)), "shard event with field mask 0x0 at record 0"},
		{"field mask", string(one(EvUpdate, 0x80, 0x80, 0x40)), "update event with field mask 0x100000 at record 0"},
		{"dictionary index", string(one(EvEnable, 1<<6, 1)), "dictionary index 1 of 1"},
		{"trailing bytes", string(one(EvBarrier, 0, 0)), "1 trailing bytes"},
		{"impossible count", "\xc0\x84\x3d\x00\x00\x00", "records in"},
	} {
		if _, err := new(Unpacker).UnpackEventsInto(nil, []byte(tc.data)); err == nil || !strings.Contains(err.Error(), "corrupt event section: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if got, err := new(Unpacker).UnpackEventsInto(nil, one(EvEnable, 1<<6, 0)); err != nil || got[0].Metric != "x" {
		t.Errorf("the well-formed record the cases are cut from: %+v, %v", got, err)
	}
}

// FuzzUnpackEvents: the event-section decoder must be total, and a clean
// decode re-encodes to the same events.
func FuzzUnpackEvents(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	real := new(Packer).PackEvents(nil, randomEvents(rng, 24))
	f.Add(real)
	f.Add(new(Packer).PackEvents(nil, nil))
	f.Add(real[:len(real)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var up Unpacker
		evs, err := up.UnpackEventsInto(nil, data)
		if err != nil {
			return
		}
		if len(evs) > len(data)/2 {
			t.Fatalf("%d events decoded from %d bytes", len(evs), len(data))
		}
		again, err := up.UnpackEventsInto(nil, new(Packer).PackEvents(nil, evs))
		if err != nil || len(again) != len(evs) || len(evs) > 0 && !reflect.DeepEqual(again, evs) {
			t.Fatalf("re-encode of a clean decode came back different (err %v):\nwant %+v\ngot  %+v", err, evs, again)
		}
	})
}
