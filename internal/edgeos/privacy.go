package edgeos

import (
	"time"

	"repro/internal/vdapcrypto"
)

// PrivacyModule protects the vehicle's identity in data leaving it (paper
// §IV-C): what it ships is tagged with a pseudonym that rotates every
// epoch instead of a stable vehicle ID.
type PrivacyModule struct {
	scheme *vdapcrypto.PseudonymScheme
}

// NewPrivacyModule builds the module from the vehicle's long-term secret;
// rotation is the pseudonym lifetime.
func NewPrivacyModule(secret []byte, rotation time.Duration) (*PrivacyModule, error) {
	scheme, err := vdapcrypto.NewPseudonymScheme(secret, rotation)
	if err != nil {
		return nil, err
	}
	return &PrivacyModule{scheme: scheme}, nil
}

// Pseudonym returns the identity to present externally at virtual time t.
func (p *PrivacyModule) Pseudonym(t time.Duration) string { return p.scheme.At(t) }
