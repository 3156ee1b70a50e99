package ipsec

import (
	"errors"
	"fmt"

	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// Encapsulating Security Payload processing (§3.2/§3.6).
//
// The ESP switch is two-dimensional: "the switch allows implementors
// to specify the header processing code and the encryption code
// separately for greater flexibility."  ESPTransform is the header
// processing half; EncAlg (alg.go) is the cipher half.  The DES-CBC
// transform (RFC 1829) is the default header format, and idea-cbc /
// 3des-cbc reuse it with different ciphers — §3.6's worked example.
// AEAD ciphers (aead.go) bring their own transform whose framing
// carries a sequence number for replay protection.
//
// Classic wire format after the IPv6 chain (RFC 1827 + RFC 1829):
//
//	| SPI (4) | IV (block) | ciphertext( payload | pad | padLen | payloadType ) |
//
// AEAD wire format (RFC 4303/4106 spirit):
//
//	| SPI (4) | Seq (8) | ciphertext( payload | payloadType ) | tag |
//
// with nonce = salt(4) || seq(8) and the SPI+Seq bytes as additional
// authenticated data.  Transport mode encrypts the upper-layer header
// and data; tunnel mode encrypts an entire IP datagram, with
// payloadType = 41 (IPv6).

// ESPTransform is the header-processing half of an ESP switch entry.
type ESPTransform interface {
	// Name identifies the header processing style.
	Name() string
	// Wrap encrypts plaintext (which already ends with pad/padLen/type
	// handling done inside) and returns the full ESP payload starting
	// with the SPI.
	Wrap(sa *key.SA, enc EncAlg, plaintext []byte, payloadType uint8) ([]byte, error)
	// Unwrap decrypts the ESP payload b (starting at the SPI) and
	// returns the inner plaintext and payload type.
	Unwrap(sa *key.SA, enc EncAlg, b []byte) (inner []byte, payloadType uint8, err error)
}

// SeqTransform marks a transform whose wire framing carries a 64-bit
// sequence number — the hook the input path's replay window reads.
type SeqTransform interface {
	// WireSeq extracts the sequence number from an ESP payload
	// (starting at the SPI); ok is false if b is too short.
	WireSeq(b []byte) (seq uint64, ok bool)
}

// cbcTransform is the RFC 1829 style header processing: SPI, explicit
// IV, CBC ciphertext trailing pad/padLen/payloadType.
type cbcTransform struct{}

// Name identifies the classic CBC header processing.
func (cbcTransform) Name() string { return "cbc" }

// Wrap implements ESPTransform with the RFC 1829 framing.
func (cbcTransform) Wrap(sa *key.SA, enc EncAlg, plaintext []byte, payloadType uint8) ([]byte, error) {
	blk, err := enc.NewCipher(sa.EncKey)
	if err != nil {
		return nil, err
	}
	bs := enc.BlockSize()
	// pad so that len(plaintext)+pad+2 is a whole number of blocks.
	pad := (bs - (len(plaintext)+2)%bs) % bs
	body := make([]byte, len(plaintext)+pad+2)
	copy(body, plaintext)
	body[len(body)-2] = byte(pad)
	body[len(body)-1] = payloadType
	out := make([]byte, 4+bs+len(body))
	put32(out, sa.SPI)
	iv := out[4 : 4+bs]
	newIV(iv)
	copy(out[4+bs:], body)
	if err := Reblock(blk, iv, out[4+bs:], true); err != nil {
		return nil, err
	}
	return out, nil
}

// Errors from ESP input processing.
var (
	errESPShort = errors.New("ipsec: ESP payload too short")
	errESPPad   = errors.New("ipsec: ESP padding check failed")
	errESPAuth  = errors.New("ipsec: ESP integrity check failed")
)

// Unwrap implements ESPTransform for the RFC 1829 framing.
func (cbcTransform) Unwrap(sa *key.SA, enc EncAlg, b []byte) ([]byte, uint8, error) {
	blk, err := enc.NewCipher(sa.EncKey)
	if err != nil {
		return nil, 0, err
	}
	bs := enc.BlockSize()
	if len(b) < 4+bs+bs {
		return nil, 0, errESPShort
	}
	iv := b[4 : 4+bs]
	ct := append([]byte(nil), b[4+bs:]...)
	if err := Reblock(blk, iv, ct, false); err != nil {
		return nil, 0, err
	}
	padLen := int(ct[len(ct)-2])
	payloadType := ct[len(ct)-1]
	if padLen+2 > len(ct) {
		return nil, 0, errESPPad
	}
	return ct[:len(ct)-2-padLen], payloadType, nil
}

// espAEADHdr is the cleartext AEAD framing: SPI plus sequence number,
// doubling as the additional authenticated data.
const espAEADHdr = 4 + 8

// aeadTransform is the sequenced AEAD header processing; the EncAlg
// parameter of the ESPTransform interface is unused (the AEAD carries
// its own cipher).
type aeadTransform struct {
	alg AEADAlg
}

// Name identifies the AEAD header processing.
func (t *aeadTransform) Name() string { return "aead" }

// WireSeq implements SeqTransform.
func (t *aeadTransform) WireSeq(b []byte) (uint64, bool) {
	if len(b) < espAEADHdr {
		return 0, false
	}
	return get64be(b[4:]), true
}

// Wrap implements ESPTransform with the sequenced AEAD framing.
func (t *aeadTransform) Wrap(sa *key.SA, _ EncAlg, plaintext []byte, payloadType uint8) ([]byte, error) {
	aead, salt, err := t.alg.New(sa.EncKey)
	if err != nil {
		return nil, err
	}
	seq := sa.NextSeq()
	out := make([]byte, espAEADHdr, espAEADHdr+len(plaintext)+1+aead.Overhead())
	put32(out, sa.SPI)
	put64(out[4:], seq)
	var nonce [12]byte
	copy(nonce[:], salt)
	put64(nonce[4:], seq)
	body := make([]byte, len(plaintext)+1)
	copy(body, plaintext)
	body[len(body)-1] = payloadType
	return aead.Seal(out, nonce[:], body, out[:espAEADHdr]), nil
}

// Unwrap implements ESPTransform for the sequenced AEAD framing.  The
// returned plaintext never aliases b.
func (t *aeadTransform) Unwrap(sa *key.SA, _ EncAlg, b []byte) ([]byte, uint8, error) {
	aead, salt, err := t.alg.New(sa.EncKey)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < espAEADHdr+1+aead.Overhead() {
		return nil, 0, errESPShort
	}
	var nonce [12]byte
	copy(nonce[:], salt)
	copy(nonce[4:], b[4:12])
	pt, err := aead.Open(nil, nonce[:], b[espAEADHdr:], b[:espAEADHdr])
	if err != nil {
		return nil, 0, errESPAuth
	}
	return pt[:len(pt)-1], pt[len(pt)-1], nil
}

// espEntry pairs a transform with a cipher — one row of the
// two-dimensional ESP switch.  AEAD rows carry their cipher inside the
// transform and leave cipher nil.
type espEntry struct {
	transform ESPTransform
	cipher    EncAlg
}

// espSwitch maps an SA's EncAlg name to its entry; AEAD entries win
// over a classic cipher of the same name.
func espLookup(name string) (espEntry, error) {
	if a, ok := LookupAEAD(name); ok {
		return espEntry{transform: &aeadTransform{alg: a}}, nil
	}
	enc, ok := LookupEnc(name)
	if !ok {
		return espEntry{}, fmt.Errorf("ipsec: unknown encryption algorithm %q", name)
	}
	return espEntry{transform: cbcTransform{}, cipher: enc}, nil
}

// buildESPTransport wraps an upper-layer payload (transport mode).
func buildESPTransport(sa *key.SA, payload []byte, nh uint8) ([]byte, error) {
	e, err := espLookup(sa.EncAlg)
	if err != nil {
		return nil, err
	}
	return e.transform.Wrap(sa, e.cipher, payload, nh)
}

// buildESPTunnel encapsulates an entire IPv6 datagram: the inner
// packet is rebuilt under hdr and encrypted whole, "prepending an
// additional cleartext IP header outside the encrypted IP datagram so
// that the packet can be routed" (§3) — the caller prepends that outer
// header.
func buildESPTunnel(sa *key.SA, hdr *ipv6.Header, payload []byte, nh uint8) ([]byte, error) {
	e, err := espLookup(sa.EncAlg)
	if err != nil {
		return nil, err
	}
	inner := *hdr
	inner.NextHdr = nh
	inner.PayloadLen = len(payload)
	datagram := inner.Marshal(nil)
	datagram = append(datagram, payload...)
	return e.transform.Wrap(sa, e.cipher, datagram, proto.IPv6)
}

// openESP decrypts an ESP payload, returning the plaintext and type.
func openESP(sa *key.SA, b []byte) ([]byte, uint8, error) {
	e, err := espLookup(sa.EncAlg)
	if err != nil {
		return nil, 0, err
	}
	return e.transform.Unwrap(sa, e.cipher, b)
}

//
// Chain-aware output path.  The builders above take one contiguous
// []byte — fine for tests and the input rebuild, but the output path
// hands us an mbuf, which may be a chain of pooled segments.  These
// gather the chain ONCE, directly into the pooled destination buffer
// at its final offset, and run the cipher in place there: one copy
// total, no intermediate flatten, and the result keeps slab headroom
// so the IPv6 header prepend downstream stays in place too.
//

// wrapESPChain wraps payload's content (prefixed by prefix, which
// carries the marshaled inner header in tunnel mode and is empty in
// transport mode) into a fresh pooled ESP mbuf.
func wrapESPChain(sa *key.SA, e espEntry, prefix []byte, payload *mbuf.Mbuf, payloadType uint8) (*mbuf.Mbuf, error) {
	plen := len(prefix) + payload.Len()
	if t, ok := e.transform.(*aeadTransform); ok {
		aead, salt, err := t.alg.New(sa.EncKey)
		if err != nil {
			return nil, err
		}
		seq := sa.NextSeq()
		total := espAEADHdr + plen + 1 + aead.Overhead()
		out := mbuf.Get(total)
		b := out.Bytes()
		put32(b, sa.SPI)
		put64(b[4:], seq)
		var nonce [12]byte
		copy(nonce[:], salt)
		put64(nonce[4:], seq)
		pt := b[espAEADHdr : espAEADHdr+plen+1]
		n := copy(pt, prefix)
		for _, seg := range payload.SegmentViews() {
			n += copy(pt[n:], seg)
		}
		pt[plen] = payloadType
		aead.Seal(pt[:0], nonce[:], pt, b[:espAEADHdr])
		return out, nil
	}

	blk, err := e.cipher.NewCipher(sa.EncKey)
	if err != nil {
		return nil, err
	}
	bs := e.cipher.BlockSize()
	pad := (bs - (plen+2)%bs) % bs
	total := 4 + bs + plen + pad + 2
	out := mbuf.Get(total)
	b := out.Bytes()
	put32(b, sa.SPI)
	newIV(b[4 : 4+bs])
	body := b[4+bs:]
	n := copy(body, prefix)
	for _, seg := range payload.SegmentViews() {
		n += copy(body[n:], seg)
	}
	for i := n; i < len(body)-2; i++ {
		body[i] = 0
	}
	body[len(body)-2] = byte(pad)
	body[len(body)-1] = payloadType
	if err := Reblock(blk, b[4:4+bs], body, true); err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}
