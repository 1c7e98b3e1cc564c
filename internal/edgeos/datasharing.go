package edgeos

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/vdapcrypto"
)

// Message is one shared datum (e.g. a camera frame reference or a
// detection result) flowing between services.
type Message struct {
	Topic   string
	From    string
	At      time.Duration
	Payload []byte
}

// DataSharing is EdgeOSv's Data Sharing module: authenticated,
// ACL-controlled topic-based exchange between services (paper §IV-C:
// "authenticate the service and perform fine grain access control").
// Payloads are sealed in transit so a service that bypasses the API cannot
// read foreign data.
type DataSharing struct {
	sealer *vdapcrypto.Sealer
	// tokenKey keys the HMAC that mints service tokens, so a token cannot
	// be computed from the service name alone.
	tokenKey []byte
	// tokens authenticate services: service -> secret token.
	tokens map[string]string
	// acl[topic][service] grants: "pub", "sub", or "pubsub".
	acl map[string]map[string]string
	// retained holds the latest N messages per topic (sealed).
	retained map[string][]sealedMessage
	// retain bounds per-topic history.
	retain int
}

type sealedMessage struct {
	from    string
	at      time.Duration
	sealed  []byte
	rawSize int
}

// NewDataSharing builds the module. retain bounds per-topic history
// (minimum 1).
func NewDataSharing(secret []byte, retain int) (*DataSharing, error) {
	sealer, err := vdapcrypto.NewSealer(secret)
	if err != nil {
		return nil, err
	}
	if retain < 1 {
		retain = 1
	}
	return &DataSharing{
		sealer:   sealer,
		tokenKey: append([]byte(nil), secret...),
		tokens:   make(map[string]string),
		acl:      make(map[string]map[string]string),
		retained: make(map[string][]sealedMessage),
		retain:   retain,
	}, nil
}

// Enroll registers a service and returns its authentication token.
func (d *DataSharing) Enroll(service string) (string, error) {
	if service == "" {
		return "", fmt.Errorf("edgeos: empty service name")
	}
	if _, dup := d.tokens[service]; dup {
		return "", fmt.Errorf("edgeos: service %q already enrolled", service)
	}
	mac := hmac.New(sha256.New, d.tokenKey)
	mac.Write([]byte("token:" + service))
	token := hex.EncodeToString(mac.Sum(nil)[:16])
	d.tokens[service] = token
	return token, nil
}

// Grant gives a service rights on a topic. mode is "pub", "sub", or
// "pubsub".
func (d *DataSharing) Grant(topic, service, mode string) error {
	switch mode {
	case "pub", "sub", "pubsub":
	default:
		return fmt.Errorf("edgeos: unknown grant mode %q", mode)
	}
	if _, ok := d.tokens[service]; !ok {
		return fmt.Errorf("edgeos: service %q not enrolled", service)
	}
	if d.acl[topic] == nil {
		d.acl[topic] = make(map[string]string)
	}
	d.acl[topic][service] = mode
	return nil
}

// authenticate verifies the (service, token) pair.
func (d *DataSharing) authenticate(service, token string) error {
	want, ok := d.tokens[service]
	if !ok || !hmac.Equal([]byte(want), []byte(token)) {
		return fmt.Errorf("edgeos: authentication failed for %q", service)
	}
	return nil
}

func (d *DataSharing) allowed(topic, service, need string) bool {
	mode, ok := d.acl[topic][service]
	if !ok {
		return false
	}
	return mode == "pubsub" || mode == need
}

// Publish shares a payload on a topic.
func (d *DataSharing) Publish(service, token, topic string, at time.Duration, payload []byte) error {
	if err := d.authenticate(service, token); err != nil {
		return err
	}
	if !d.allowed(topic, service, "pub") {
		return fmt.Errorf("edgeos: service %s lacks publish rights on %q", service, topic)
	}
	sealed, err := d.sealer.Seal(payload, []byte("topic:"+topic))
	if err != nil {
		return err
	}
	msgs := append(d.retained[topic], sealedMessage{from: service, at: at, sealed: sealed, rawSize: len(payload)})
	if len(msgs) > d.retain {
		msgs = msgs[len(msgs)-d.retain:]
	}
	d.retained[topic] = msgs
	return nil
}

// Fetch returns a topic's retained messages newer than since for an
// authorized subscriber.
func (d *DataSharing) Fetch(service, token, topic string, since time.Duration) ([]Message, error) {
	if err := d.authenticate(service, token); err != nil {
		return nil, err
	}
	if !d.allowed(topic, service, "sub") {
		return nil, fmt.Errorf("edgeos: service %s lacks subscribe rights on %q", service, topic)
	}
	var out []Message
	for _, sm := range d.retained[topic] {
		if sm.at <= since {
			continue
		}
		payload, err := d.sealer.Open(sm.sealed, []byte("topic:"+topic))
		if err != nil {
			return nil, fmt.Errorf("unseal topic %q: %w", topic, err)
		}
		out = append(out, Message{Topic: topic, From: sm.from, At: sm.at, Payload: payload})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// Topics lists topics with any retained data, sorted.
func (d *DataSharing) Topics() []string {
	out := make([]string, 0, len(d.retained))
	for t := range d.retained {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
