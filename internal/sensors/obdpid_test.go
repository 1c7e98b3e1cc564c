package sensors

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestRequestFrame(t *testing.T) {
	f := Request(PIDRPM)
	if len(f) != 2 || f[0] != 0x01 || f[1] != 0x0C {
		t.Fatalf("request = %v", f)
	}
}

func TestPIDRoundTrips(t *testing.T) {
	r := OBDReading{
		SpeedKPH:     88,
		RPM:          3200,
		CoolantTempC: 92,
		BatteryV:     13.8,
		FuelPct:      75,
		ThrottlePct:  42,
	}
	cases := []struct {
		pid  PID
		want float64
		tol  float64
	}{
		{PIDSpeed, 88, 1},
		{PIDRPM, 3200, 0.25},
		{PIDCoolantTemp, 92, 1},
		{PIDVoltage, 13.8, 0.001},
		{PIDFuelLevel, 75, 0.5},
		{PIDThrottle, 42, 0.5},
	}
	for _, tc := range cases {
		frame, err := EncodeCurrentData(tc.pid, r)
		if err != nil {
			t.Fatalf("encode 0x%02X: %v", byte(tc.pid), err)
		}
		pid, got, err := DecodeCurrentData(frame)
		if err != nil {
			t.Fatalf("decode 0x%02X: %v", byte(tc.pid), err)
		}
		if pid != tc.pid {
			t.Fatalf("pid = 0x%02X", byte(pid))
		}
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("PID 0x%02X round trip = %v, want %v ± %v", byte(tc.pid), got, tc.want, tc.tol)
		}
	}
}

func TestPIDRangeClamps(t *testing.T) {
	r := OBDReading{SpeedKPH: 400, RPM: 99999, CoolantTempC: 500, BatteryV: 99}
	frame, _ := EncodeCurrentData(PIDSpeed, r)
	if _, v, _ := DecodeCurrentData(frame); v != 255 {
		t.Fatalf("speed clamp = %v", v)
	}
	frame, _ = EncodeCurrentData(PIDRPM, r)
	if _, v, _ := DecodeCurrentData(frame); v > 16384 {
		t.Fatalf("rpm clamp = %v", v)
	}
}

func TestPIDErrors(t *testing.T) {
	if _, err := EncodeCurrentData(PID(0xEE), OBDReading{}); err == nil {
		t.Fatal("unknown PID encoded")
	}
	if _, _, err := DecodeCurrentData(nil); err == nil {
		t.Fatal("nil frame decoded")
	}
	if _, _, err := DecodeCurrentData([]byte{0x99, 0x0C, 0, 0}); err == nil {
		t.Fatal("wrong mode decoded")
	}
	if _, _, err := DecodeCurrentData([]byte{0x41, 0x0C, 0x01}); err == nil {
		t.Fatal("truncated RPM decoded")
	}
	if _, _, err := DecodeCurrentData([]byte{0x41, 0xEE, 0x01}); err == nil {
		t.Fatal("unknown PID decoded")
	}
}

func TestDTCRoundTrip(t *testing.T) {
	for _, code := range []string{"P0217", "C0750", "P0562", "P0300", "U3FFF", "B1234"} {
		enc, err := EncodeDTC(code)
		if err != nil {
			t.Fatalf("encode %s: %v", code, err)
		}
		if got := DecodeDTC(enc); got != code {
			t.Errorf("round trip %s -> %s", code, got)
		}
	}
}

func TestDTCRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(b0, b1 byte) bool {
		code := DecodeDTC([2]byte{b0, b1})
		enc, err := EncodeDTC(code)
		if err != nil {
			return false
		}
		return enc == [2]byte{b0, b1}
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDTCEncodingErrors(t *testing.T) {
	for _, bad := range []string{"", "P021", "X0217", "P4217", "P0ZZZ", "P02177"} {
		if _, err := EncodeDTC(bad); err == nil {
			t.Errorf("EncodeDTC(%q) succeeded", bad)
		}
	}
}

func TestDTCFrameRoundTrip(t *testing.T) {
	codes := []string{"P0217", "P0300"}
	frame, err := EncodeDTCFrame(codes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDTCFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "P0217" || got[1] != "P0300" {
		t.Fatalf("round trip = %v", got)
	}
	// Empty frame is valid (healthy vehicle).
	empty, err := EncodeDTCFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeDTCFrame(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty frame = %v, %v", got, err)
	}
}

func TestDTCFrameErrors(t *testing.T) {
	if _, err := DecodeDTCFrame(nil); err == nil {
		t.Fatal("nil frame decoded")
	}
	if _, err := DecodeDTCFrame([]byte{0x99, 0}); err == nil {
		t.Fatal("wrong mode decoded")
	}
	if _, err := DecodeDTCFrame([]byte{0x43, 2, 0x01, 0x02}); err == nil {
		t.Fatal("length mismatch decoded")
	}
	if _, err := EncodeDTCFrame([]string{"bogus"}); err == nil {
		t.Fatal("bad code encoded")
	}
}

// TestReadFramesEndToEnd: a faulty vehicle's wire frames decode back into
// the injected trouble code.
func TestReadFramesEndToEnd(t *testing.T) {
	o, err := NewOBD(sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	o.InjectFault(FaultOverheat)
	var sawDTC bool
	for i := 0; i < 100 && !sawDTC; i++ {
		frames, err := o.ReadFrames(time.Duration(i)*time.Second, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 7 { // 6 PIDs + DTC frame
			t.Fatalf("frames = %d", len(frames))
		}
		// Every PID frame decodes.
		for _, f := range frames[:6] {
			if _, _, err := DecodeCurrentData(f); err != nil {
				t.Fatal(err)
			}
		}
		codes, err := DecodeDTCFrame(frames[6])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codes {
			if c == DTCOverheat {
				sawDTC = true
			}
		}
	}
	if !sawDTC {
		t.Fatal("overheat DTC never crossed the wire")
	}
}

// readingFor returns a reading whose pid field carries v, the inverse of
// what DecodeCurrentData reports.
func readingFor(pid PID, v float64) OBDReading {
	var r OBDReading
	switch pid {
	case PIDCoolantTemp:
		r.CoolantTempC = v
	case PIDRPM:
		r.RPM = v
	case PIDSpeed:
		r.SpeedKPH = v
	case PIDThrottle:
		r.ThrottlePct = v
	case PIDFuelLevel:
		r.FuelPct = v
	case PIDVoltage:
		r.BatteryV = v
	}
	return r
}

// FuzzDecodeOBD feeds arbitrary bytes to both OBD decoders — what an OBD
// reader hands the DDI is whatever the bus carried. Neither may panic; a
// DTC frame that decodes re-encodes to the same bytes; a Mode-01 frame that
// decodes to (pid, value) re-encodes to a frame that decodes to the same
// pair (not the same bytes: the decoder ignores trailing padding).
func FuzzDecodeOBD(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		if codes, err := DecodeDTCFrame(frame); err == nil {
			again, err := EncodeDTCFrame(codes)
			if err != nil {
				t.Fatalf("DTC frame %x decoded to %v, which does not encode: %v", frame, codes, err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("DTC frame %x decoded to %v, which encodes to %x", frame, codes, again)
			}
		}
		pid, v, err := DecodeCurrentData(frame)
		if err != nil {
			return
		}
		again, err := EncodeCurrentData(pid, readingFor(pid, v))
		if err != nil {
			t.Fatalf("frame %x decoded to PID 0x%02X = %v, which does not encode: %v", frame, byte(pid), v, err)
		}
		pid2, v2, err := DecodeCurrentData(again)
		if err != nil || pid2 != pid || v2 != v {
			t.Fatalf("frame %x decoded to PID 0x%02X = %v; re-encoded as %x it decodes to PID 0x%02X = %v (%v)",
				frame, byte(pid), v, again, byte(pid2), v2, err)
		}
	})
}
