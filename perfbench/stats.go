package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// probe is one measurement of the machine, split into three fixed
// CPU-bound tasks that each lean on a different part of the processor.
type probe struct {
	hash     time.Duration // SHA-256 over 8 MiB, four times: straight-line arithmetic
	chase    time.Duration // one million dependent loads through an 8 MiB table: memory latency
	dispatch time.Duration // a table-dispatch loop over random opcodes: indirect branches, like the simulator's own loops
}

func (p probe) total() time.Duration { return p.hash + p.chase + p.dispatch }

func (p probe) String() string {
	return fmt.Sprintf("%.2f (hash %.2f, chase %.2f, dispatch %.2f)",
		ms(p.total()), ms(p.hash), ms(p.chase), ms(p.dispatch))
}

// dispatchOps are the probe's opcodes; calls through this table are
// indirect branches the processor cannot predict.
var dispatchOps = [8]func(uint64) uint64{
	func(x uint64) uint64 { return x + 1 },
	func(x uint64) uint64 { return x * 3 },
	func(x uint64) uint64 { return x ^ x>>7 },
	func(x uint64) uint64 { return x<<1 | 1 },
	func(x uint64) uint64 { return x - 5 },
	func(x uint64) uint64 { return bits.RotateLeft64(x, 13) },
	func(x uint64) uint64 { return x/3 + 1 },
	func(x uint64) uint64 { return ^x },
}

// boxProbe measures the machine. It never adjusts any metric; comparing
// it across runs tells drift of the machine apart from noise of the
// program.
func boxProbe() probe {
	buf := make([]byte, 8<<20)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], uint64(i)*0x9e3779b97f4a7c15)
	}
	// Sattolo's shuffle leaves one cycle through every slot.
	next := make([]uint32, 2<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	r := rng{s: 1}
	for i := len(next) - 1; i > 0; i-- {
		j := r.intn(i)
		next[i], next[j] = next[j], next[i]
	}
	code := make([]uint8, 1<<16)
	for i := range code {
		code[i] = uint8(r.next() % uint64(len(dispatchOps)))
	}

	var p probe
	t0 := time.Now()
	var sum [32]byte
	for i := 0; i < 4; i++ {
		sum = sha256.Sum256(buf)
		buf[0] ^= sum[0]
	}
	p.hash = time.Since(t0)

	t0 = time.Now()
	at := uint32(sum[0])
	for i := 0; i < 1<<20; i++ {
		at = next[at]
	}
	p.chase = time.Since(t0)

	t0 = time.Now()
	x := uint64(at)
	for rep := 0; rep < 32; rep++ {
		for _, op := range code {
			x = dispatchOps[op](x)
		}
	}
	p.dispatch = time.Since(t0)
	probeSink = x
	return p
}

// probeSink keeps the probe's results from being optimised away.
var probeSink uint64

// dirKB is the total size of the regular files under dir.
func dirKB(dir string) float64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return float64(total) / 1024
}

// mix64 is the splitmix64 finalizer, used to derive sub-seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a small deterministic generator keyed by the workload seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s = mix64(r.s); return r.s }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
