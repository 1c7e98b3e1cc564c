// Package vdapcrypto provides the cryptographic mechanisms EdgeOSv's
// security and privacy modules rely on: rotating HMAC-derived pseudonyms
// for privacy-preserving data sharing between vehicles and XEdge (paper
// §IV-C), and AES-GCM sealed envelopes standing in for TEE-sealed memory
// and encrypted inter-service data sharing.
package vdapcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"
)

// ErrDecrypt is returned when an envelope fails authentication.
var ErrDecrypt = errors.New("vdapcrypto: decryption failed")

// PseudonymScheme derives short-lived vehicle pseudonyms from a long-term
// secret. Observers (RSUs, other vehicles) see unlinkable identifiers that
// rotate every Period, while the issuing vehicle can always recognize its
// own pseudonyms.
type PseudonymScheme struct {
	secret []byte
	period time.Duration
}

// NewPseudonymScheme builds a scheme from a vehicle's long-term secret.
// Period is the rotation interval (paper: "generated and periodically
// updated by the Privacy module").
func NewPseudonymScheme(secret []byte, period time.Duration) (*PseudonymScheme, error) {
	if len(secret) < 16 {
		return nil, fmt.Errorf("vdapcrypto: secret must be at least 16 bytes, got %d", len(secret))
	}
	if period <= 0 {
		return nil, fmt.Errorf("vdapcrypto: rotation period must be positive, got %v", period)
	}
	return &PseudonymScheme{secret: append([]byte(nil), secret...), period: period}, nil
}

// Epoch returns the rotation epoch containing virtual time t.
func (s *PseudonymScheme) Epoch(t time.Duration) uint64 {
	return uint64(t / s.period)
}

// At returns the pseudonym valid at virtual time t (hex, 16 bytes).
func (s *PseudonymScheme) At(t time.Duration) string {
	var epoch [8]byte
	binary.LittleEndian.PutUint64(epoch[:], s.Epoch(t))
	mac := hmac.New(sha256.New, s.secret)
	mac.Write([]byte("openvdap-pseudonym-v1"))
	mac.Write(epoch[:])
	return hex.EncodeToString(mac.Sum(nil)[:16])
}

// Mine reports whether pseudonym p was issued by this scheme at a time
// within the epochs [t-lookback, t].
func (s *PseudonymScheme) Mine(p string, t, lookback time.Duration) bool {
	if lookback < 0 {
		lookback = 0
	}
	start := time.Duration(0)
	if t > lookback {
		start = t - lookback
	}
	for e := s.Epoch(start); e <= s.Epoch(t); e++ {
		if hmac.Equal([]byte(p), []byte(s.At(time.Duration(e)*s.period))) {
			return true
		}
	}
	return false
}

// Sealer encrypts and authenticates byte payloads with AES-256-GCM. It
// models both TEE memory sealing and the Data Sharing module's envelopes.
type Sealer struct {
	aead cipher.AEAD
	// nonceCounter produces unique nonces; GCM nonce reuse is fatal, so
	// the counter is never reset.
	nonceCounter uint64
}

// NewSealer derives an AES-256 key from the given secret via SHA-256.
func NewSealer(secret []byte) (*Sealer, error) {
	if len(secret) < 16 {
		return nil, fmt.Errorf("vdapcrypto: secret must be at least 16 bytes, got %d", len(secret))
	}
	key := sha256.Sum256(secret)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("new cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("new gcm: %w", err)
	}
	return &Sealer{aead: aead}, nil
}

// Seal encrypts plaintext bound to the given associated data (e.g. the
// destination service name, so envelopes cannot be replayed elsewhere).
func (s *Sealer) Seal(plaintext, associated []byte) ([]byte, error) {
	nonce := make([]byte, s.aead.NonceSize())
	s.nonceCounter++
	binary.LittleEndian.PutUint64(nonce, s.nonceCounter)
	out := make([]byte, 0, len(nonce)+len(plaintext)+s.aead.Overhead())
	out = append(out, nonce...)
	return s.aead.Seal(out, nonce, plaintext, associated), nil
}

// Open authenticates and decrypts an envelope produced by Seal with the
// same secret and associated data.
func (s *Sealer) Open(envelope, associated []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if len(envelope) < ns+s.aead.Overhead() {
		return nil, ErrDecrypt
	}
	plaintext, err := s.aead.Open(nil, envelope[:ns], envelope[ns:], associated)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plaintext, nil
}

// Fingerprint returns a short stable identifier for a byte string (e.g.
// attestation measurements of service binaries).
func Fingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
