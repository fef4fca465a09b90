package main

// Calibration against the host. The box this benchmark runs on shares its
// memory system with neighbours: a fixed piece of memory-bound work takes
// up to twice as long for minutes at a time, while pure arithmetic barely
// moves (README, Reference milliseconds). Wall-clock medians of whole runs therefore
// spread by 15–65 % between runs of the same code, which no bound can gate.
//
// So the gated timings are expressed in *reference milliseconds*: next to
// the rounds it times, the drive runs a fixed reference kernel — string-key
// hashing, a hash-table probe and a random read-modify-write, the kind of
// work the system under test does, over memory of its own outside the Go
// heap — and scales each measured time by nominal ÷ measured kernel time.
// A slowdown the kernel feels cancels; a change to the repository's code
// cannot touch the kernel and shows in full.

import (
	"syscall"
	"time"
	"unsafe"
)

const (
	refSlots    = 1 << 17 // hash table: 128k slots of four words, 4 MB
	refKeys     = refSlots / 2
	refArray    = 1 << 20 // 1M words, 8 MB
	refSteps    = 8000    // lookups + updates per sample, ≈ 2 ms
	refInterval = 40 * time.Millisecond
	// refNominal is the kernel's median on this box when nothing disturbs
	// it, whichever workload runs beside it, so that on a calm box reference
	// time is wall time. It only fixes the unit: every comparison is
	// between runs that use the same constant.
	refNominal = 1550 * time.Microsecond
)

// refKernel is the fixed work the timings are calibrated against.
type refKernel struct {
	table []uint64 // open addressing; slot = key words 0..2, value
	array []uint64
	state uint64
}

// offHeap maps n zeroed words the garbage collector neither scans nor
// counts, so the kernel changes neither the heap metrics nor GC pacing.
func offHeap(n int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// keyWords spells key id as three words, as an encoded key would be.
func keyWords(id uint64) (uint64, uint64, uint64) {
	return id | 0x6b65790000000000, mix(id), mix(id + 1)
}

func slotOf(w0, w1, w2 uint64) uint64 { return mix(w0^mix(w1^mix(w2))) & (refSlots - 1) }

func newRefKernel() (*refKernel, error) {
	table, err := offHeap(refSlots * 4)
	if err != nil {
		return nil, err
	}
	array, err := offHeap(refArray)
	if err != nil {
		return nil, err
	}
	for id := uint64(0); id < refKeys; id++ {
		w0, w1, w2 := keyWords(id)
		s := slotOf(w0, w1, w2)
		for table[s*4] != 0 {
			s = (s + 1) & (refSlots - 1)
		}
		table[s*4], table[s*4+1], table[s*4+2], table[s*4+3] = w0, w1, w2, id
	}
	return &refKernel{table: table, array: array, state: 1}, nil
}

// sample runs the fixed work once and returns how long it took.
func (k *refKernel) sample() time.Duration {
	t0 := time.Now()
	h := k.state
	for i := 0; i < refSteps; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		k.array[(h>>13)&(refArray-1)] += h
		w0, w1, w2 := keyWords((h >> 20) % refKeys)
		s := slotOf(w0, w1, w2)
		for k.table[s*4] != w0 || k.table[s*4+1] != w1 || k.table[s*4+2] != w2 {
			s = (s + 1) & (refSlots - 1)
		}
		h += k.table[s*4+3]
	}
	k.state = h
	return time.Since(t0)
}

// calibrator keeps the kernel's latest sample fresh and converts measured
// durations into reference time.
type calibrator struct {
	k       *refKernel
	at      time.Time
	last    time.Duration
	samples []float64 // every sample, in ms
}

func newCalibrator() (*calibrator, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	k.sample() // touch every page once
	return &calibrator{k: k}, nil
}

// resample takes a sample now and returns it. Call it outside the timers.
func (c *calibrator) resample() time.Duration {
	c.last = c.k.sample()
	c.at = time.Now()
	c.samples = append(c.samples, ms(c.last))
	return c.last
}

// refresh takes a new sample unless the last one is recent.
func (c *calibrator) refresh() {
	if time.Since(c.at) >= refInterval {
		c.resample()
	}
}

// ref converts a duration measured since the latest sample into reference
// time.
func (c *calibrator) ref(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(c.last))
}
