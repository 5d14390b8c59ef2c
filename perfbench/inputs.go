package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Every input — object sets and values, dedup corpora, log entries,
// service values, class bodies, balancer loads and each client's op
// mix — derives from the run's --seed through subSeed, so the same seed
// replays the same inputs and the system under test sees only them.

// subSeed derives an independent stream seed (splitmix64 finalizer).
func subSeed(seed int64, stream string, idx int) int64 {
	z := uint64(seed) ^ uint64(idx)*0x9E3779B97F4A7C15
	for _, c := range []byte(stream) {
		z = (z ^ uint64(c)) * 0x100000001B3
	}
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func rngFor(seed int64, stream string, idx int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream, idx)))
}

// seedTag names a run's objects so inputs from different seeds differ.
func seedTag(seed int64) string {
	return strconv.FormatUint(uint64(subSeed(seed, "tag", 0))&0xffffff, 16)
}

// fillerPool is a seeded set of random blocks that values are cut from:
// making a value is a copy, not a random-number loop in the timed path.
type fillerPool [][]byte

func newFillerPool(seed int64, stream string, n, size int) fillerPool {
	rng := rngFor(seed, stream, 0)
	p := make(fillerPool, n)
	for i := range p {
		p[i] = make([]byte, size)
		rng.Read(p[i])
	}
	return p
}

// value builds a self-describing payload of len(filler block) bytes: a
// header naming the owner and sequence number, then filler bytes picked
// by both. A read is checked by rebuilding the expected value.
func (p fillerPool) value(owner string, seq uint64) []byte {
	hdr := fmt.Sprintf("%s seq=%d\n", owner, seq)
	blk := p[(uint64(len(owner))*131+seq+uint64(owner[len(owner)-1]))%uint64(len(p))]
	out := make([]byte, len(blk))
	copy(out, blk)
	copy(out, hdr)
	return out
}

// rwObjects names client k's disjoint object set.
func rwObjects(seed int64, k, n int) []string {
	tag := seedTag(seed)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rw.%s.c%d.%d", tag, k, i)
	}
	return names
}

// Op kinds of the object-rw mix.
const (
	opWrite = iota
	opRead
	opTouch
)

// rwOp draws the next op of a client's seeded mix: 45% WriteFull, 45%
// Read, 10% script-class omap touch, on a uniformly chosen object.
func rwOp(rng *rand.Rand, nobj int) (kind, obj int) {
	r := rng.Intn(100)
	switch {
	case r < 45:
		kind = opWrite
	case r < 90:
		kind = opRead
	default:
		kind = opTouch
	}
	return kind, rng.Intn(nobj)
}

// corpusSeed is the GenerateDupCorpus seed of the i-th deduped write.
func corpusSeed(seed int64, i int) int64 { return subSeed(seed, "corpus", i) }

// serviceValue is the i-th control-plane service-metadata value.
func serviceValue(seed int64, i int) string {
	return fmt.Sprintf("v%d.%016x", i, uint64(subSeed(seed, "svc", i)))
}

// probeClass is the i-th installed class body of the control plane.
func probeClass(seed int64, i int) string {
	return fmt.Sprintf("function probe(cls) return %d end", uint32(subSeed(seed, "class", i)))
}

// balancerLoads draws one tick's per-rank loads for the Mantle decide.
func balancerLoads(rng *rand.Rand, ranks int) map[int]float64 {
	loads := make(map[int]float64, ranks)
	for r := 0; r < ranks; r++ {
		loads[r] = float64(rng.Intn(1000))
	}
	return loads
}
