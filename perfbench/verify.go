package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
)

// patternLen is the period of the seeded byte stream.  It is longer
// than the largest write (64 KiB) and not a multiple of any write size,
// so every write and every read lands at a different phase of the
// pattern and a byte delivered at the wrong offset shows.
const patternLen = 131101

// pattern is the seeded payload every workload sends: byte i of a
// stream is pattern byte i mod patternLen.  p holds two periods so that
// any window of up to one period is one contiguous slice.
type pattern struct {
	p []byte
}

func newPattern(rng *rand.Rand) *pattern {
	p := make([]byte, 2*patternLen)
	rng.Read(p[:patternLen])
	copy(p[patternLen:], p[:patternLen])
	return &pattern{p: p}
}

// at returns the n stream bytes that start at offset off (n <= patternLen).
func (pt *pattern) at(off int64, n int) []byte {
	o := int(off % patternLen)
	return pt.p[o : o+n]
}

var (
	errShortRead = errors.New("short read")
	errMismatch  = errors.New("payload mismatch")
)

// checkEcho compares an echoed message with the request it answers.
func checkEcho(want, got []byte) error {
	if len(got) < len(want) {
		return fmt.Errorf("%w: %d of %d bytes", errShortRead, len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		return errMismatch
	}
	return nil
}

// streamCheck verifies a byte stream against the pattern at its offset.
type streamCheck struct {
	pt  *pattern
	off int64 // bytes verified so far
}

// consume checks the next len(b) received bytes.
func (sc *streamCheck) consume(b []byte) error {
	for len(b) > 0 {
		n := len(b)
		if n > patternLen {
			n = patternLen
		}
		if !bytes.Equal(b[:n], sc.pt.at(sc.off, n)) {
			err := fmt.Errorf("%w in stream bytes %d..%d", errMismatch, sc.off, sc.off+int64(n))
			sc.off += int64(len(b))
			return err
		}
		sc.off += int64(n)
		b = b[n:]
	}
	return nil
}

// finish checks that the stream ended after exactly sent bytes.
func (sc *streamCheck) finish(sent int64) error {
	if sc.off != sent {
		return fmt.Errorf("%w: stream ended after %d of %d bytes", errShortRead, sc.off, sent)
	}
	return nil
}
