package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
)

// Payload layout: seq (8 bytes) | send stamp (8) | CRC-32C of every other
// byte (4) | body. The stamp is mono() on loopback and virtual-clock
// nanoseconds on the simulator.
const payloadHeader = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadGen derives payload sizes and bodies from the workload seed, so
// a seed fixes the inputs.
type payloadGen struct {
	rng      *rand.Rand
	min, max int
	body     []byte
	buf      []byte
}

func newPayloadGen(seed int64, min, max int) *payloadGen {
	rng := rand.New(rand.NewSource(seed))
	body := make([]byte, max)
	rng.Read(body)
	return &payloadGen{rng: rng, min: min, max: max, body: body, buf: make([]byte, max)}
}

// next builds the payload for seq stamped at stamp. The returned slice is
// reused by the following call (the sender copies what it retains).
func (g *payloadGen) next(seq uint64, stamp int64) []byte {
	n := g.min
	if g.max > g.min {
		n += g.rng.Intn(g.max - g.min + 1)
	}
	p := g.buf[:n]
	copy(p[payloadHeader:], g.body[:n-payloadHeader])
	binary.BigEndian.PutUint64(p[0:8], seq)
	binary.BigEndian.PutUint64(p[8:16], uint64(stamp))
	binary.BigEndian.PutUint32(p[16:20], payloadSum(p))
	return p
}

func payloadSum(p []byte) uint32 {
	c := crc32.Update(0, castagnoli, p[:16])
	return crc32.Update(c, castagnoli, p[payloadHeader:])
}

var (
	errShort    = errors.New("payload shorter than its header")
	errSeq      = errors.New("embedded seq differs from Event.Seq")
	errChecksum = errors.New("payload checksum mismatch")
)

// checkPayload verifies a delivered payload against the event's seq and
// returns its send stamp.
func checkPayload(seq uint64, p []byte) (int64, error) {
	if len(p) < payloadHeader {
		return 0, errShort
	}
	if binary.BigEndian.Uint64(p[0:8]) != seq {
		return 0, errSeq
	}
	if binary.BigEndian.Uint32(p[16:20]) != payloadSum(p) {
		return 0, errChecksum
	}
	return int64(binary.BigEndian.Uint64(p[8:16])), nil
}
