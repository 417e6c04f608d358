package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// kv-mixed: a closed loop at queue depth 64 against the durable KV
// appliance on direct block rings — 50% Get / 50% Set of 128-byte values
// on keys drawn uniformly — with background checkpoints as the appliance
// would run them. KV creation, prepopulation and the first checkpoint are
// set-up.
//
// Latency percentiles are over the Sets. A Get is served from the overlay
// or the cached B-tree in zero virtual time, so over all ops the median
// would read 0; Get latency stays visible as storage.get_p99_us, and a
// slower read path lowers throughput_ops.

const (
	kvQD          = 64
	kvKeys        = 1024
	kvValueBytes  = 128
	kvOpsFull     = 65536
	kvWALBase     = 1 << 20 // B-tree below 512 MiB, WAL above
	kvWALSectors  = 1 << 14 // 8 MiB log region
	kvCkptDirty   = 128 << 10
	kvSetup       = 2 * time.Second
	kvTimedBudget = 30 * time.Second // virtual; the loop ends long before
)

type kvOp struct {
	read bool
	key  int
	val  []byte // Set value; unique per op (op index in the first 8 bytes)
}

type kvIn struct {
	seed int64
	keys [][]byte
	init [][]byte // prepopulated value per key
	ops  []kvOp
}

func kvValue(rng *rand.Rand, stamp uint64) []byte {
	v := make([]byte, kvValueBytes)
	rng.Read(v[8:])
	binary.BigEndian.PutUint64(v, stamp)
	return v
}

// kvInputs draws the op mix, the keys and every value from the seed.
func kvInputs(seed int64, size float64) any {
	rng := rand.New(rand.NewSource(seed))
	in := &kvIn{seed: seed}
	for k := 0; k < kvKeys; k++ {
		in.keys = append(in.keys, []byte(fmt.Sprintf("k%06d", k)))
		in.init = append(in.init, kvValue(rng, 1<<63|uint64(k)))
	}
	n := int(size * kvOpsFull)
	if n < kvQD {
		n = kvQD
	}
	in.ops = make([]kvOp, n)
	for i := range in.ops {
		o := kvOp{read: rng.Intn(2) == 0, key: rng.Intn(kvKeys)}
		if !o.read {
			o.val = kvValue(rng, uint64(i))
		}
		in.ops[i] = o
	}
	return in
}

// kvShadow is the benchmark's model of the store. A Get may return the value
// of the last Set to complete before it was issued, or of any Set to the
// same key still in flight when it was issued; anything else is wrong.
type kvShadow struct {
	done     [][]byte // per key: value of the last completed Set
	doneOp   []int    // per key: op index of that Set (-1 = prepopulated)
	inflight [][]int  // per key: op indices of Sets in flight
}

func newKVShadow(init [][]byte) *kvShadow {
	sh := &kvShadow{done: append([][]byte(nil), init...), doneOp: make([]int, len(init)), inflight: make([][]int, len(init))}
	for i := range sh.doneOp {
		sh.doneOp[i] = -1
	}
	return sh
}

func (sh *kvShadow) setIssued(key, op int) { sh.inflight[key] = append(sh.inflight[key], op) }

// setEnded retires an in-flight Set; a successful one becomes the key's
// value unless a later-issued Set already completed.
func (sh *kvShadow) setEnded(key, op int, val []byte, ok bool) {
	fl := sh.inflight[key]
	for i, o := range fl {
		if o == op {
			sh.inflight[key] = append(fl[:i], fl[i+1:]...)
			break
		}
	}
	if ok && op > sh.doneOp[key] {
		sh.done[key], sh.doneOp[key] = val, op
	}
}

// allowed lists the values a Get of key issued now may return.
func (sh *kvShadow) allowed(key int, ops []kvOp) [][]byte {
	out := [][]byte{sh.done[key]}
	for _, op := range sh.inflight[key] {
		out = append(out, ops[op].val)
	}
	return out
}

func checkGet(got []byte, allowed [][]byte, key int) error {
	for _, v := range allowed {
		if bytes.Equal(got, v) {
			return nil
		}
	}
	return fmt.Errorf("%w: Get(k%06d) returned %x..., not the last value Set", errCheck, key, head(got))
}

func head(b []byte) []byte {
	if len(b) > 12 {
		return b[:12]
	}
	return b
}

// timedDevice sits between the KV and blkif in traced repetitions and
// records a span around every device operation.
type timedDevice struct {
	dev storage.Device
	s   *lwt.Scheduler
	log *spanLog
}

func (d *timedDevice) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	h := d.log.begin("blkif.read", 0, 0, d.s.K.Now())
	p := d.dev.Read(sector, sectors)
	lwt.Always(p, func() { d.log.end(h, d.s.K.Now()) })
	return p
}

func (d *timedDevice) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	h := d.log.begin("blkif.write", 0, 0, d.s.K.Now())
	p := d.dev.Write(sector, data)
	lwt.Always(p, func() { d.log.end(h, d.s.K.Now()) })
	return p
}

// kvMutate lets the tests corrupt one Get result to prove the check fires.
type kvMutate func(op int, got []byte) []byte

func runKV(v any, cfg runCfg) (*runOut, error) { return runKVWith(v.(*kvIn), cfg, nil) }

func runKVWith(in *kvIn, cfg runCfg, mutate kvMutate) (*runOut, error) {
	out := &runOut{}
	clk := startSetup(&out.rep, cfg.trace)
	pl := newPlatform(in.seed, cfg)
	var log *spanLog
	if cfg.trace != nil {
		log = new(spanLog)
	}
	var (
		start, finish     sim.Time
		completed, failed int
		lats              []float64
		checkErr, runErr  error
		kvRef             *storage.DurableKV
		flushes0, appends int
		ckpt0             int
	)
	sh := newKVShadow(in.init)
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "kvappliance", Roots: []string{"kv", "btree"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			var dev storage.Device = env.Blk
			if log != nil {
				dev = &timedDevice{dev: env.Blk, s: s, log: log}
			}
			fin := lwt.NewPromise[struct{}](s)
			main := lwt.Bind(storage.CreateDurableKV(s, dev, kvWALBase, kvWALSectors), func(kv *storage.DurableKV) *lwt.Promise[struct{}] {
				kvRef = kv
				var ws []lwt.Waiter
				for k := range in.keys {
					ws = append(ws, kv.Set(in.keys[k], in.init[k]))
				}
				ready := lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] { return kv.Checkpoint() })
				return lwt.Bind(ready, func(struct{}) *lwt.Promise[struct{}] {
					if s.K.Now() > sim.Time(kvSetup) {
						runErr = fmt.Errorf("set-up ran past %v (ended at %v)", kvSetup, s.K.Now())
						return lwt.Return(s, struct{}{})
					}
					return lwt.Bind(s.Sleep(sim.Time(kvSetup).Sub(s.K.Now())), func(struct{}) *lwt.Promise[struct{}] {
						start = s.K.Now()
						flushes0, appends, ckpt0 = kv.W.Flushes, kv.W.Appends, kv.Checkpoints
						kvLoop(s, kv, in, sh, log, mutate, &lats, &completed, &failed, &checkErr, func() {
							finish = s.K.Now()
							fin.Resolve(struct{}{})
						})
						return fin
					})
				})
			})
			return env.VM.Main(env.P, main)
		},
	}, core.DeployOpts{Block: true})

	err := phase(pl, clk, kvSetup, kvTimedBudget, layerMap(&out.Virt))
	if err != nil && !isCheck(err) {
		return nil, fmt.Errorf("kv: %w", err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("kv: %w", runErr)
	}
	out.err = err
	if out.err == nil {
		out.err = checkErr
	}
	if completed != len(in.ops) && out.err == nil {
		out.err = fmt.Errorf("%w: %d of %d KV ops completed", errCheck, completed, len(in.ops))
	}
	v0 := &out.Virt
	v0.Attempted, v0.Failed = len(in.ops), failed
	sorted := sortedCopy(lats)
	v0.Samples = len(sorted)
	v0.P50us, v0.P99us = percentile(sorted, 0.50), percentile(sorted, 0.99)
	if secs := finish.Sub(start).Seconds(); secs > 0 {
		v0.Throughput = float64(completed) / secs
		v0.ReplicaS = secs // one appliance domain
	}
	if kvRef != nil {
		fl := kvRef.W.Flushes - flushes0
		v0.Layer["storage.wal_flushes"] = float64(fl)
		if fl > 0 {
			v0.Layer["storage.records_per_flush"] = float64(kvRef.W.Appends-appends) / float64(fl)
		}
		v0.Layer["storage.checkpoints"] = float64(kvRef.Checkpoints - ckpt0)
	}
	v0.seal()
	if cfg.trace != nil {
		cfg.trace.addLog(log)
	}
	return out, nil
}

// kvLoop issues the op list closed-loop at queue depth kvQD, checkpointing
// in the background whenever the WAL backlog passes kvCkptDirty, and calls
// done once every op has completed and the last checkpoint has drained.
func kvLoop(s *lwt.Scheduler, kv *storage.DurableKV, in *kvIn, sh *kvShadow, log *spanLog, mutate kvMutate,
	lats *[]float64, completed, failed *int, checkErr *error, done func()) {
	var lastCkpt lwt.Waiter = lwt.Return(s, struct{}{})
	ckptBusy := false
	next, inflight := 0, 0
	var issue func()
	finishOp := func(err error) {
		inflight--
		*completed++
		if err != nil {
			*failed++
		}
		if *completed < len(in.ops) {
			issue()
			return
		}
		lwt.Always(lastCkpt, done)
	}
	maybeCheckpoint := func() {
		if ckptBusy || kv.DirtyBytes() < kvCkptDirty {
			return
		}
		ckptBusy = true
		cp := kv.Checkpoint()
		lastCkpt = cp
		lwt.Always(cp, func() {
			ckptBusy = false
			if err := cp.Failed(); err != nil && *checkErr == nil {
				*checkErr = fmt.Errorf("%w: checkpoint: %v", errCheck, err)
			}
		})
	}
	issue = func() {
		for inflight < kvQD && next < len(in.ops) {
			i := next
			o := in.ops[i]
			next++
			inflight++
			t0 := s.K.Now()
			if o.read {
				allowed := sh.allowed(o.key, in.ops)
				h := log.begin("storage.get", 0, i, t0)
				pr := kv.Get(in.keys[o.key])
				lwt.Always(pr, func() {
					log.end(h, s.K.Now())
					err := pr.Failed()
					if err == nil {
						got := pr.Value()
						if mutate != nil {
							got = mutate(i, got)
						}
						if e := checkGet(got, allowed, o.key); e != nil && *checkErr == nil {
							*checkErr = e
						}
					}
					finishOp(err)
				})
				continue
			}
			sh.setIssued(o.key, i)
			h := log.begin("storage.set", 0, i, t0)
			pr := kv.Set(in.keys[o.key], o.val)
			lwt.Always(pr, func() {
				log.end(h, s.K.Now())
				err := pr.Failed()
				sh.setEnded(o.key, i, o.val, err == nil)
				*lats = append(*lats, float64(s.K.Now().Sub(t0))/float64(time.Microsecond))
				finishOp(err)
			})
			maybeCheckpoint()
		}
	}
	issue()
}
