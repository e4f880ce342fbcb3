package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/fti"
	"repro/internal/fti/shard"
	"repro/internal/lossless"
	"repro/internal/precond"
	"repro/internal/solver"
)

// kind names one layer boundary a span is recorded at.
type kind uint8

const (
	kSolve   kind = iota // root: first Step .. WaitCheckpoint returns
	kStep                // solver.Stepper.Step
	kSpMV                // solver.Operator.MulVec
	kDot                 // solver.Space.Dot / Norm2
	kApply               // precond.Interface.Apply
	kObserve             // abft.Guard.Observe
	kCkpt                // core.Manager.Checkpoint
	kRecover             // core.Manager.Recover / RecoverTiered / RecoverFresh
	kWait                // core.Manager.WaitCheckpoint (the final drain)
	kEncode              // fti.Encoder.Encode / EncodeStats, lossless.Codec.Compress
	kDecode              // fti.Encoder.Decode / DecodeInto, lossless.Codec.Decompress(Into)
	kWrite               // fti.Storage.Write / WriteBatched
	kRead                // fti.Storage.Read
	kList                // fti.Storage.List
	kDelete              // fti.Storage.Delete
	nKinds
)

var kindNames = [nKinds]string{
	"solve", "solver.step", "sparse.spmv", "vec.dot", "precond.apply", "abft.observe",
	"core.checkpoint", "core.recover", "core.wait", "fti.encode", "fti.decode",
	"storage.write", "storage.read", "storage.list", "storage.delete",
}

// span is one call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is the index of the enclosing
// main-goroutine span (-1 for the root and for background spans).
type span struct {
	start, end int64
	parent     int32
	kind       kind
	main       bool
	bytesIn    int64
	bytesOut   int64
}

// tracer keeps every span of a run in memory. Main-goroutine spans
// nest through an explicit stack; spans opened on other goroutines
// (the async pipeline, shard worker pools) are recorded flat.
type tracer struct {
	epoch time.Time
	mainG uint64
	on    bool

	mu    sync.Mutex
	spans []span
	stack []int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), mainG: goid()}
}

// goid returns the current goroutine's id, parsed from the first line
// of its stack header ("goroutine N [").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span on the main goroutine, nested under the span on
// top of the stack. It returns -1 when the tracer is nil or idle.
func (t *tracer) begin(k kind) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: parent, kind: k, main: true})
	t.mu.Unlock()
	t.stack = append(t.stack, id)
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) { t.endBytes(id, 0, 0) }

func (t *tracer) endBytes(id int32, in, out int64) {
	if id < 0 {
		return
	}
	end := t.now()
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Lock()
	s := &t.spans[id]
	s.end, s.bytesIn, s.bytesOut = end, in, out
	t.mu.Unlock()
}

// anyBegin opens a span from a goroutine that may not be the main one:
// on the main goroutine it nests like begin, elsewhere it is recorded
// flat as background work.
func (t *tracer) anyBegin(k kind) (int32, bool) {
	if t == nil || !t.on {
		return -1, false
	}
	if goid() == t.mainG {
		return t.begin(k), true
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: -1, kind: k})
	t.mu.Unlock()
	return id, false
}

func (t *tracer) anyEnd(id int32, main bool, in, out int64) {
	if id < 0 {
		return
	}
	if main {
		t.endBytes(id, in, out)
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.end, s.bytesIn, s.bytesOut = end, in, out
	t.mu.Unlock()
}

// window returns the spans recorded since mark (a len(spans) taken
// earlier). Call only while no background span is open.
func (t *tracer) window(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[mark:]
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeTSV writes every span, one per line: kind, main, parent,
// start_ns, end_ns, bytes_in, bytes_out.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tmain\tparent\tstart_ns\tend_ns\tbytes_in\tbytes_out")
	for _, s := range t.spans {
		m := 0
		if s.main {
			m = 1
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], m, s.parent, s.start, s.end, s.bytesIn, s.bytesOut)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Timing wrappers on the interfaces the stack already takes. Each one
// forwards every call unchanged and records one span around it.

type tracedOperator struct {
	in solver.Operator
	t  *tracer
}

func (o tracedOperator) MulVec(dst, x []float64) {
	id := o.t.begin(kSpMV)
	o.in.MulVec(dst, x)
	o.t.end(id)
}

type tracedPrecond struct {
	in precond.Interface
	t  *tracer
}

func (p tracedPrecond) Apply(dst, r []float64) {
	id := p.t.begin(kApply)
	p.in.Apply(dst, r)
	p.t.end(id)
}

type tracedSpace struct {
	in solver.Space
	t  *tracer
}

func (s tracedSpace) Dot(x, y []float64) float64 {
	id := s.t.begin(kDot)
	v := s.in.Dot(x, y)
	s.t.end(id)
	return v
}

func (s tracedSpace) Norm2(x []float64) float64 {
	id := s.t.begin(kDot)
	v := s.in.Norm2(x)
	s.t.end(id)
	return v
}

// fullEncoder is an fti.Encoder with every optional extension the
// checkpoint path type-asserts. The wrapper implements all of them, so
// it only wraps encoders that do too — otherwise the traced run would
// take a different code path than the untraced one.
type fullEncoder interface {
	fti.Encoder
	fti.DecoderInto
	fti.StatsEncoder
	fti.Bounded
}

type tracedEncoder struct {
	in fullEncoder
	t  *tracer
}

func newTracedEncoder(enc fti.Encoder, t *tracer) (fti.Encoder, error) {
	full, ok := enc.(fullEncoder)
	if !ok {
		return nil, fmt.Errorf("encoder %s lacks an optional extension the wrapper would add", enc.Name())
	}
	return tracedEncoder{in: full, t: t}, nil
}

func (e tracedEncoder) Name() string             { return e.in.Name() }
func (e tracedEncoder) BoundInfo() fti.BoundInfo { return e.in.BoundInfo() }

func (e tracedEncoder) Encode(x []float64) ([]byte, error) {
	id, m := e.t.anyBegin(kEncode)
	blob, err := e.in.Encode(x)
	e.t.anyEnd(id, m, int64(8*len(x)), int64(len(blob)))
	return blob, err
}

func (e tracedEncoder) EncodeStats(x []float64) ([]byte, fti.EncodeStats, error) {
	id, m := e.t.anyBegin(kEncode)
	blob, st, err := e.in.EncodeStats(x)
	e.t.anyEnd(id, m, int64(8*len(x)), int64(len(blob)))
	return blob, st, err
}

func (e tracedEncoder) Decode(data []byte) ([]float64, error) {
	id, m := e.t.anyBegin(kDecode)
	v, err := e.in.Decode(data)
	e.t.anyEnd(id, m, int64(len(data)), int64(8*len(v)))
	return v, err
}

func (e tracedEncoder) DecodeInto(dst []float64, data []byte) error {
	id, m := e.t.anyBegin(kDecode)
	err := e.in.DecodeInto(dst, data)
	e.t.anyEnd(id, m, int64(len(data)), int64(8*len(dst)))
	return err
}

// containerCodec is a lossless codec that writes the BLK1 container;
// the streaming restore picks its block parser by asserting
// codec.Container on the codec.
type containerCodec interface {
	lossless.Codec
	codec.Container
}

// tracedCodec wraps the lossless codec under fti.Lossless: the core
// Manager builds the lossless scheme's encoder itself, so the codec is
// the interface that scheme takes. Sharded restores decode blocks
// inside fti without calling the codec, so only monolithic decodes
// show up here.
type tracedCodec struct {
	in containerCodec
	t  *tracer
}

func newTracedCodec(c lossless.Codec, t *tracer) (lossless.Codec, error) {
	cc, ok := c.(containerCodec)
	if !ok {
		return nil, fmt.Errorf("codec %s does not write the blocked container", c.Name())
	}
	return tracedCodec{in: cc, t: t}, nil
}

func (c tracedCodec) Name() string          { return c.in.Name() }
func (c tracedCodec) ContainerID() codec.ID { return c.in.ContainerID() }

func (c tracedCodec) Compress(x []float64) ([]byte, error) {
	id, m := c.t.anyBegin(kEncode)
	blob, err := c.in.Compress(x)
	c.t.anyEnd(id, m, int64(8*len(x)), int64(len(blob)))
	return blob, err
}

func (c tracedCodec) Decompress(data []byte) ([]float64, error) {
	id, m := c.t.anyBegin(kDecode)
	v, err := c.in.Decompress(data)
	c.t.anyEnd(id, m, int64(len(data)), int64(8*len(v)))
	return v, err
}

func (c tracedCodec) DecompressInto(dst []float64, data []byte) error {
	id, m := c.t.anyBegin(kDecode)
	err := c.in.DecompressInto(dst, data)
	c.t.anyEnd(id, m, int64(len(data)), int64(8*len(dst)))
	return err
}

// fullStorage is an fti.Storage with the optional extensions the
// checkpoint stack type-asserts: the shard writer's batched group
// commit and fsck's temp sweep.
type fullStorage interface {
	fti.Storage
	shard.BatchWriter
	fti.TempSweeper
}

type tracedStorage struct {
	in fullStorage
	t  *tracer
}

func newTracedStorage(st fti.Storage, t *tracer) (fti.Storage, error) {
	full, ok := st.(fullStorage)
	if !ok {
		return nil, fmt.Errorf("storage %T lacks an optional extension the wrapper would add", st)
	}
	return tracedStorage{in: full, t: t}, nil
}

func (s tracedStorage) Write(name string, data []byte) error {
	id, m := s.t.anyBegin(kWrite)
	err := s.in.Write(name, data)
	s.t.anyEnd(id, m, int64(len(data)), 0)
	return err
}

func (s tracedStorage) WriteBatched(name string, data []byte) error {
	id, m := s.t.anyBegin(kWrite)
	err := s.in.WriteBatched(name, data)
	s.t.anyEnd(id, m, int64(len(data)), 0)
	return err
}

func (s tracedStorage) Read(name string) ([]byte, error) {
	id, m := s.t.anyBegin(kRead)
	data, err := s.in.Read(name)
	s.t.anyEnd(id, m, 0, int64(len(data)))
	return data, err
}

func (s tracedStorage) Delete(name string) error {
	id, m := s.t.anyBegin(kDelete)
	err := s.in.Delete(name)
	s.t.anyEnd(id, m, 0, 0)
	return err
}

func (s tracedStorage) List() ([]string, error) {
	id, m := s.t.anyBegin(kList)
	names, err := s.in.List()
	s.t.anyEnd(id, m, 0, 0)
	return names, err
}

func (s tracedStorage) SweepTemp() ([]string, error) { return s.in.SweepTemp() }
