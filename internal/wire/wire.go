// Package wire implements the message transport between INDaaS roles
// (auditing client, auditing agent, data sources, PIA proxies): length-
// prefixed JSON messages over TCP (the prototype substitute for the paper's
// SSH channels; §4 agents in the paper-section map, docs/ARCHITECTURE.md).
//
// Framing: 4-byte big-endian payload length, then a JSON object
// {"type": "...", "payload": ...}. Payloads are capped to guard against
// resource-exhaustion from malformed peers.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxMessageSize caps a single message's encoded size (64 MiB — a 100k-item
// encrypted dataset at 2048-bit keys fits comfortably).
const MaxMessageSize = 64 << 20

// Message is the envelope every INDaaS wire exchange uses.
type Message struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Conn wraps a stream with framing, JSON codecs and byte accounting.
// Safe for one reader and one writer goroutine concurrently.
type Conn struct {
	raw io.ReadWriteCloser
	br  *bufio.Reader

	wmu          sync.Mutex
	bytesRead    int64
	bytesWritten int64
	mu           sync.Mutex
}

// NewConn wraps an established stream.
func NewConn(raw io.ReadWriteCloser) *Conn {
	return &Conn{raw: raw, br: bufio.NewReader(raw)}
}

// Dial connects to an INDaaS endpoint.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewConn(c), nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.raw.Close() }

// BytesRead and BytesWritten report accounting totals.
func (c *Conn) BytesRead() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesRead
}

// BytesWritten reports the total payload bytes written.
func (c *Conn) BytesWritten() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesWritten
}

func (c *Conn) addRead(n int64) {
	c.mu.Lock()
	c.bytesRead += n
	c.mu.Unlock()
}

func (c *Conn) addWritten(n int64) {
	c.mu.Lock()
	c.bytesWritten += n
	c.mu.Unlock()
}

// Send encodes v as the payload of a typed message and writes it.
func (c *Conn) Send(msgType string, v any) error {
	var payload json.RawMessage
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("wire: marshal %s payload: %w", msgType, err)
		}
		payload = b
	}
	frame, err := json.Marshal(Message{Type: msgType, Payload: payload})
	if err != nil {
		return fmt.Errorf("wire: marshal %s: %w", msgType, err)
	}
	if len(frame) > MaxMessageSize {
		return fmt.Errorf("wire: message of %d bytes exceeds cap", len(frame))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.raw.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := c.raw.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	c.addWritten(int64(len(frame)) + 4)
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err // io.EOF propagates cleanly for connection close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return nil, fmt.Errorf("wire: peer announced %d-byte message, cap is %d", n, MaxMessageSize)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, fmt.Errorf("wire: read frame: %w", err)
	}
	c.addRead(int64(n) + 4)
	var m Message
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("wire: message without type")
	}
	return &m, nil
}

// Expect reads the next message and verifies its type, decoding the payload
// into out (which may be nil to discard).
func (c *Conn) Expect(msgType string, out any) error {
	m, err := c.Recv()
	if err != nil {
		return err
	}
	if m.Type == TypeError {
		var e ErrorPayload
		if json.Unmarshal(m.Payload, &e) == nil && e.Error != "" {
			return fmt.Errorf("wire: peer error: %s", e.Error)
		}
		return fmt.Errorf("wire: peer error")
	}
	if m.Type != msgType {
		return fmt.Errorf("wire: expected %q, got %q", msgType, m.Type)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(m.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", msgType, err)
	}
	return nil
}

// Decode unmarshals a message payload.
func (m *Message) Decode(out any) error {
	if err := json.Unmarshal(m.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", m.Type, err)
	}
	return nil
}

// TypeError is the conventional error message type.
const TypeError = "error"

// ErrorPayload carries a peer-reported failure.
type ErrorPayload struct {
	Error string `json:"error"`
}

// SendError reports a failure to the peer.
func (c *Conn) SendError(err error) error {
	return c.Send(TypeError, ErrorPayload{Error: err.Error()})
}
