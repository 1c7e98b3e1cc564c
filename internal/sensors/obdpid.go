package sensors

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// This file implements the OBD-II wire encoding the DDI's OBD reader
// speaks (paper §IV-D: "we used an OBD reader since most of the normal
// vehicles only provide an OBD interface"). Mode 01 (current data) PIDs
// use the standard SAE J1979 scalings; Mode 03 returns diagnostic trouble
// codes in their two-byte encoding.

// PID is a Mode-01 parameter identifier.
type PID byte

// Supported PIDs with standard encodings.
const (
	PIDCoolantTemp PID = 0x05 // A - 40 (°C)
	PIDRPM         PID = 0x0C // (256A + B) / 4 (rpm)
	PIDSpeed       PID = 0x0D // A (km/h)
	PIDThrottle    PID = 0x11 // A * 100 / 255 (%)
	PIDFuelLevel   PID = 0x2F // A * 100 / 255 (%)
	PIDVoltage     PID = 0x42 // (256A + B) / 1000 (V)
)

// Mode bytes.
const (
	modeCurrentData     = 0x01
	modeDTC             = 0x03
	responseOffset      = 0x40
	respCurrentData     = modeCurrentData + responseOffset
	respDTC             = modeDTC + responseOffset
	maxEncodableRPM     = 16383.75
	maxEncodableVoltage = 65.535
)

// Request builds a Mode-01 request frame for a PID.
func Request(pid PID) []byte { return []byte{modeCurrentData, byte(pid)} }

// EncodeCurrentData builds the Mode-01 response frame for a PID from a
// reading, applying the standard scaling and rounding to the nearest wire
// step — truncating would encode a value DecodeCurrentData produced (a
// multiple of the step, up to float error) one step low.
func EncodeCurrentData(pid PID, r OBDReading) ([]byte, error) {
	frame := []byte{respCurrentData, byte(pid)}
	switch pid {
	case PIDCoolantTemp:
		v := clamp(r.CoolantTempC, -40, 215)
		return append(frame, byte(math.Round(v+40))), nil
	case PIDRPM:
		v := clamp(r.RPM, 0, maxEncodableRPM)
		raw := uint16(math.Round(v * 4))
		return append(frame, byte(raw>>8), byte(raw)), nil
	case PIDSpeed:
		return append(frame, byte(math.Round(clamp(r.SpeedKPH, 0, 255)))), nil
	case PIDThrottle:
		return append(frame, byte(math.Round(clamp(r.ThrottlePct, 0, 100)*255/100))), nil
	case PIDFuelLevel:
		return append(frame, byte(math.Round(clamp(r.FuelPct, 0, 100)*255/100))), nil
	case PIDVoltage:
		raw := uint16(math.Round(clamp(r.BatteryV, 0, maxEncodableVoltage) * 1000))
		return append(frame, byte(raw>>8), byte(raw)), nil
	default:
		return nil, fmt.Errorf("sensors: unsupported PID 0x%02X", byte(pid))
	}
}

// DecodeCurrentData parses a Mode-01 response frame into (pid, value).
func DecodeCurrentData(frame []byte) (PID, float64, error) {
	if len(frame) < 3 {
		return 0, 0, fmt.Errorf("sensors: frame too short (%d bytes)", len(frame))
	}
	if frame[0] != respCurrentData {
		return 0, 0, fmt.Errorf("sensors: not a mode-01 response (0x%02X)", frame[0])
	}
	pid := PID(frame[1])
	data := frame[2:]
	need := func(n int) error {
		if len(data) < n {
			return fmt.Errorf("sensors: PID 0x%02X needs %d data bytes, got %d", byte(pid), n, len(data))
		}
		return nil
	}
	switch pid {
	case PIDCoolantTemp:
		if err := need(1); err != nil {
			return 0, 0, err
		}
		return pid, float64(data[0]) - 40, nil
	case PIDRPM:
		if err := need(2); err != nil {
			return 0, 0, err
		}
		return pid, float64(uint16(data[0])<<8|uint16(data[1])) / 4, nil
	case PIDSpeed:
		if err := need(1); err != nil {
			return 0, 0, err
		}
		return pid, float64(data[0]), nil
	case PIDThrottle, PIDFuelLevel:
		if err := need(1); err != nil {
			return 0, 0, err
		}
		return pid, float64(data[0]) * 100 / 255, nil
	case PIDVoltage:
		if err := need(2); err != nil {
			return 0, 0, err
		}
		return pid, float64(uint16(data[0])<<8|uint16(data[1])) / 1000, nil
	default:
		return 0, 0, fmt.Errorf("sensors: unsupported PID 0x%02X", byte(pid))
	}
}

// dtcSystems maps the top two bits of a DTC to its system letter.
var dtcSystems = [4]byte{'P', 'C', 'B', 'U'}

// EncodeDTC packs a five-character trouble code ("P0217") into its
// two-byte wire form.
func EncodeDTC(code string) ([2]byte, error) {
	var out [2]byte
	if len(code) != 5 {
		return out, fmt.Errorf("sensors: DTC %q must be 5 characters", code)
	}
	var system byte
	switch code[0] {
	case 'P':
		system = 0
	case 'C':
		system = 1
	case 'B':
		system = 2
	case 'U':
		system = 3
	default:
		return out, fmt.Errorf("sensors: DTC %q has unknown system %q", code, code[0])
	}
	d1, err := strconv.ParseUint(code[1:2], 4, 8) // second char is 0-3
	if err != nil {
		return out, fmt.Errorf("sensors: DTC %q second digit must be 0-3", code)
	}
	rest, err := strconv.ParseUint(code[2:], 16, 16)
	if err != nil {
		return out, fmt.Errorf("sensors: DTC %q digits 3-5 must be hex", code)
	}
	out[0] = system<<6 | byte(d1)<<4 | byte(rest>>8)
	out[1] = byte(rest)
	return out, nil
}

// DecodeDTC unpacks a two-byte trouble code.
func DecodeDTC(b [2]byte) string {
	system := dtcSystems[b[0]>>6]
	return fmt.Sprintf("%c%d%03X", system, (b[0]>>4)&0x3, uint16(b[0]&0x0F)<<8|uint16(b[1]))
}

// EncodeDTCFrame builds a Mode-03 response carrying all codes.
func EncodeDTCFrame(codes []string) ([]byte, error) {
	if len(codes) > 255 {
		return nil, fmt.Errorf("sensors: %d DTCs exceed a single frame", len(codes))
	}
	frame := []byte{respDTC, byte(len(codes))}
	for _, c := range codes {
		enc, err := EncodeDTC(c)
		if err != nil {
			return nil, err
		}
		frame = append(frame, enc[0], enc[1])
	}
	return frame, nil
}

// DecodeDTCFrame parses a Mode-03 response.
func DecodeDTCFrame(frame []byte) ([]string, error) {
	if len(frame) < 2 {
		return nil, fmt.Errorf("sensors: DTC frame too short")
	}
	if frame[0] != respDTC {
		return nil, fmt.Errorf("sensors: not a mode-03 response (0x%02X)", frame[0])
	}
	n := int(frame[1])
	if len(frame) != 2+2*n {
		return nil, fmt.Errorf("sensors: DTC frame claims %d codes but has %d bytes", n, len(frame)-2)
	}
	codes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		codes = append(codes, DecodeDTC([2]byte{frame[2+2*i], frame[3+2*i]}))
	}
	return codes, nil
}

// ReadFrames samples the bus and returns the standard frame set: one
// Mode-01 response per supported PID plus a Mode-03 DTC frame — what the
// DDI's OBD reader actually receives each poll.
func (o *OBD) ReadFrames(t time.Duration, speedKPH float64) ([][]byte, error) {
	r := o.Read(t, speedKPH)
	pids := []PID{PIDCoolantTemp, PIDRPM, PIDSpeed, PIDThrottle, PIDFuelLevel, PIDVoltage}
	frames := make([][]byte, 0, len(pids)+1)
	for _, pid := range pids {
		f, err := EncodeCurrentData(pid, r)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	dtc, err := EncodeDTCFrame(r.DTCs)
	if err != nil {
		return nil, err
	}
	return append(frames, dtc), nil
}
