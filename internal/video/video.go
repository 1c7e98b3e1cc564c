// Package video models the H.264-style live streams OpenVDAP vehicles
// upload: a GOP structure with one key frame every KeyInterval, RTP-style
// packetization, and the paper's frame-loss accounting rule (a frame counts
// as lost when the key frame opening its GOP is lost, regardless of the
// frame's own delivery — §III-A).
package video

import (
	"fmt"
	"time"
)

// Profile describes an encoded stream.
type Profile struct {
	// Name labels the profile ("720p", "1080p").
	Name string
	// Width and Height are the frame dimensions in pixels.
	Width, Height int
	// FPS is frames per second.
	FPS int
	// BitrateMbps is the encoded stream rate in megabits per second.
	BitrateMbps float64
	// KeyInterval is the time between key frames (one GOP).
	KeyInterval time.Duration
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("video: profile has no name")
	}
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("video: profile %s has non-positive dimensions", p.Name)
	}
	if p.FPS <= 0 {
		return fmt.Errorf("video: profile %s has non-positive FPS", p.Name)
	}
	if p.BitrateMbps <= 0 {
		return fmt.Errorf("video: profile %s has non-positive bitrate", p.Name)
	}
	if p.KeyInterval <= 0 {
		return fmt.Errorf("video: profile %s has non-positive key interval", p.Name)
	}
	return nil
}

// Profile720p returns the paper's 1280x720, 30 fps, 3.8 Mbps test stream
// (key frame every two seconds).
func Profile720p() Profile {
	return Profile{Name: "720p", Width: 1280, Height: 720, FPS: 30, BitrateMbps: 3.8, KeyInterval: 2 * time.Second}
}

// Profile1080p returns the paper's 1920x1080, 30 fps, 5.8 Mbps test stream.
func Profile1080p() Profile {
	return Profile{Name: "1080p", Width: 1920, Height: 1080, FPS: 30, BitrateMbps: 5.8, KeyInterval: 2 * time.Second}
}

// PayloadBytes is the RTP payload per packet (typical H.264-over-RTP MTU
// budget: 1500 MTU minus IP/UDP/RTP headers, rounded as in the drive test).
const PayloadBytes = 1316

// HeaderCriticalPackets is the number of leading key-frame packets whose
// loss makes the whole GOP undecodable (SPS/PPS and first slice rows).
// Later key-frame packets degrade quality but are concealable. The value
// reproduces the amplification between Figure 2's packet- and frame-loss
// series for both resolutions.
const HeaderCriticalPackets = 20

// keyFrameShare is the fraction of one GOP's bits carried by its key frame.
const keyFrameShare = 0.25

// Frame is one encoded frame ready for packetization.
type Frame struct {
	// Index is the frame sequence number within the stream.
	Index int
	// PTS is the presentation timestamp relative to stream start.
	PTS time.Duration
	// Key marks IDR frames.
	Key bool
	// GOP is the index of the group-of-pictures this frame belongs to.
	GOP int
	// Bytes is the encoded frame size.
	Bytes int
}

// Packets returns how many RTP packets carry this frame.
func (f Frame) Packets() int {
	n := (f.Bytes + PayloadBytes - 1) / PayloadBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Stream deterministically generates the frame sequence for a profile.
type Stream struct {
	profile       Profile
	framesPerGOP  int
	keyBytes      int
	deltaBytes    int
	totalDuration time.Duration
}

// NewStream builds a generator for duration worth of the profile.
func NewStream(p Profile, duration time.Duration) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("video: stream duration must be positive, got %v", duration)
	}
	framesPerGOP := int(p.KeyInterval.Seconds() * float64(p.FPS))
	if framesPerGOP < 1 {
		framesPerGOP = 1
	}
	gopBits := p.BitrateMbps * 1e6 * p.KeyInterval.Seconds()
	keyBytes := int(gopBits * keyFrameShare / 8)
	deltaBytes := 0
	if framesPerGOP > 1 {
		deltaBytes = int(gopBits * (1 - keyFrameShare) / 8 / float64(framesPerGOP-1))
	}
	return &Stream{
		profile:       p,
		framesPerGOP:  framesPerGOP,
		keyBytes:      keyBytes,
		deltaBytes:    deltaBytes,
		totalDuration: duration,
	}, nil
}

// FrameCount returns the total number of frames in the stream.
func (s *Stream) FrameCount() int {
	return int(s.totalDuration.Seconds() * float64(s.profile.FPS))
}

// Frame returns the i-th frame of the stream.
func (s *Stream) Frame(i int) (Frame, error) {
	if i < 0 || i >= s.FrameCount() {
		return Frame{}, fmt.Errorf("video: frame %d outside stream of %d frames", i, s.FrameCount())
	}
	key := i%s.framesPerGOP == 0
	bytes := s.deltaBytes
	if key {
		bytes = s.keyBytes
	}
	return Frame{
		Index: i,
		PTS:   time.Duration(float64(i) / float64(s.profile.FPS) * float64(time.Second)),
		Key:   key,
		GOP:   i / s.framesPerGOP,
		Bytes: bytes,
	}, nil
}

// Channel delivers packets at a virtual time; it abstracts
// network.CellularChannel so this package has no network dependency.
type Channel interface {
	// SendPacket attempts delivery at virtual time t; calls have
	// non-decreasing t. It reports whether the packet arrived.
	SendPacket(t time.Duration) bool
}

// UploadReport summarizes a simulated live upload.
type UploadReport struct {
	Profile        string
	FramesSent     int
	FramesLost     int
	PacketsSent    int
	PacketsLost    int
	GOPsSent       int
	GOPsDead       int
	PacketLossRate float64
	FrameLossRate  float64
}

// Upload streams every frame through ch in real (virtual) time, applying
// the drive test's counting rules:
//
//   - packet loss: lost packets / sent packets;
//   - a GOP is dead when any of the first HeaderCriticalPackets packets of
//     its key frame is lost;
//   - a frame is lost when its GOP is dead, or its own first packet is
//     lost (slice header gone, frame unconcealable).
func Upload(s *Stream, ch Channel) (UploadReport, error) {
	if s == nil || ch == nil {
		return UploadReport{}, fmt.Errorf("video: nil stream or channel")
	}
	rpt := UploadReport{Profile: s.profile.Name}
	gopDead := false
	frameInterval := time.Duration(float64(time.Second) / float64(s.profile.FPS))
	n := s.FrameCount()
	for i := 0; i < n; i++ {
		f, err := s.Frame(i)
		if err != nil {
			return UploadReport{}, err
		}
		if f.Key {
			rpt.GOPsSent++
			gopDead = false
		}
		pkts := f.Packets()
		// Packets of one frame leave back-to-back within the frame slot.
		perPacket := frameInterval / time.Duration(pkts+1)
		firstLost := false
		criticalLost := false
		for p := 0; p < pkts; p++ {
			at := f.PTS + time.Duration(p)*perPacket
			ok := ch.SendPacket(at)
			rpt.PacketsSent++
			if !ok {
				rpt.PacketsLost++
				if p == 0 {
					firstLost = true
				}
				if f.Key && p < HeaderCriticalPackets {
					criticalLost = true
				}
			}
		}
		if f.Key && criticalLost {
			gopDead = true
			rpt.GOPsDead++
		}
		rpt.FramesSent++
		if gopDead || firstLost {
			rpt.FramesLost++
		}
	}
	if rpt.PacketsSent > 0 {
		rpt.PacketLossRate = float64(rpt.PacketsLost) / float64(rpt.PacketsSent)
	}
	if rpt.FramesSent > 0 {
		rpt.FrameLossRate = float64(rpt.FramesLost) / float64(rpt.FramesSent)
	}
	return rpt, nil
}
