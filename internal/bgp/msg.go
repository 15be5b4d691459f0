package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"crystalnet/internal/netpkt"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         uint8 = 1
	MsgUpdate       uint8 = 2
	MsgNotification uint8 = 3
	MsgKeepalive    uint8 = 4
)

// Protocol constants.
const (
	Version       = 4
	ASTrans       = 23456 // RFC 6793 placeholder for 4-octet AS speakers
	headerLen     = 19
	maxMessageLen = 4096
	markerLen     = 16
)

// Path attribute type codes.
const (
	attrOrigin     uint8 = 1
	attrASPath     uint8 = 2
	attrNextHop    uint8 = 3
	attrMED        uint8 = 4
	attrLocalPref  uint8 = 5
	attrAtomicAgg  uint8 = 6
	attrAggregator uint8 = 7
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagExtLen     uint8 = 0x10
)

// Capability codes carried in OPEN optional parameters.
const (
	capFourOctetAS uint8 = 65
	// capConnGen is a private-use capability carrying the sender's
	// connection generation — the emulator's stand-in for TCP connection
	// identity, letting a receiver distinguish a duplicate OPEN of the
	// current connection from a genuinely new one after a peer restart.
	capConnGen uint8 = 0xF0
)

// Errors surfaced by the codec. Real firmware sends NOTIFICATION with
// error codes; the emulator maps decode failures onto these.
var (
	ErrBadMarker  = errors.New("bgp: connection not synchronized (bad marker)")
	ErrBadLength  = errors.New("bgp: bad message length")
	ErrBadType    = errors.New("bgp: bad message type")
	ErrMalformed  = errors.New("bgp: malformed attribute list")
	ErrBadVersion = errors.New("bgp: unsupported version number")
)

// Open is a BGP OPEN message.
type Open struct {
	AS       uint32 // full 4-octet AS
	HoldTime uint16
	BGPID    netpkt.IP
	// Gen identifies the connection incarnation (see capConnGen).
	Gen uint32
}

// Update is a BGP UPDATE message: withdrawals plus announcements sharing one
// attribute set. An Update with only withdrawals has nil Attrs.
//
// NextHop carries the NEXT_HOP path attribute. It rides the Update rather
// than the Attrs: the fabric is next-hop-self on every session (RFC 7938),
// so a route's next hop is a property of the announcing session, not of the
// route — the sender stamps its session address here at marshal time and
// the receiver recovers it from the peer that delivered the message. Keeping
// it out of Attrs is what lets one canonical interned attribute object be
// shared by every session and every device in the process (DESIGN.md §10).
type Update struct {
	Withdrawn []netpkt.Prefix
	Attrs     *Attrs
	NextHop   netpkt.IP
	NLRI      []netpkt.Prefix
}

// Notification is a BGP NOTIFICATION message; sending one closes the session.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes (RFC 4271 §4.5).
const (
	NotifMsgHeader   uint8 = 1
	NotifOpenError   uint8 = 2
	NotifUpdateError uint8 = 3
	NotifHoldTimer   uint8 = 4
	NotifFSMError    uint8 = 5
	NotifCease       uint8 = 6
)

func putHeader(b []byte, msgType uint8) {
	for i := 0; i < markerLen; i++ {
		b[i] = 0xff
	}
	binary.BigEndian.PutUint16(b[16:18], uint16(len(b)))
	b[18] = msgType
}

// MarshalOpen encodes an OPEN with the 4-octet-AS and connection-generation
// capabilities.
func MarshalOpen(o *Open) []byte {
	// Optional parameter: type 2 (capability), two capabilities.
	capData := make([]byte, 4)
	binary.BigEndian.PutUint32(capData, o.AS)
	optParams := []byte{2, 12, capFourOctetAS, 4}
	optParams = append(optParams, capData...)
	genData := make([]byte, 4)
	binary.BigEndian.PutUint32(genData, o.Gen)
	optParams = append(optParams, capConnGen, 4)
	optParams = append(optParams, genData...)

	b := make([]byte, headerLen+10+len(optParams))
	p := b[headerLen:]
	p[0] = Version
	as2 := o.AS
	if as2 > 0xffff {
		as2 = ASTrans
	}
	binary.BigEndian.PutUint16(p[1:3], uint16(as2))
	binary.BigEndian.PutUint16(p[3:5], o.HoldTime)
	binary.BigEndian.PutUint32(p[5:9], uint32(o.BGPID))
	p[9] = byte(len(optParams))
	copy(p[10:], optParams)
	putHeader(b, MsgOpen)
	return b
}

// MarshalKeepalive encodes a KEEPALIVE.
func MarshalKeepalive() []byte {
	b := make([]byte, headerLen)
	putHeader(b, MsgKeepalive)
	return b
}

// MarshalNotification encodes a NOTIFICATION.
func MarshalNotification(n *Notification) []byte {
	b := make([]byte, headerLen+2+len(n.Data))
	b[headerLen] = n.Code
	b[headerLen+1] = n.Subcode
	copy(b[headerLen+2:], n.Data)
	putHeader(b, MsgNotification)
	return b
}

func marshalPrefixes(dst []byte, ps []netpkt.Prefix) []byte {
	for _, p := range ps {
		dst = append(dst, p.Len)
		oct := p.Addr.Octets()
		dst = append(dst, oct[:(p.Len+7)/8]...)
	}
	return dst
}

func parsePrefixes(b []byte) ([]netpkt.Prefix, error) {
	var out []netpkt.Prefix
	for len(b) > 0 {
		l := b[0]
		if l > 32 {
			return nil, ErrMalformed
		}
		n := int(l+7) / 8
		if len(b) < 1+n {
			return nil, ErrMalformed
		}
		var oct [4]byte
		copy(oct[:], b[1:1+n])
		p := netpkt.Prefix{Addr: netpkt.IPFromBytes(oct[0], oct[1], oct[2], oct[3]), Len: l}
		p.Addr &= p.MaskIP()
		out = append(out, p)
		b = b[1+n:]
	}
	return out, nil
}

// MarshalUpdate encodes an UPDATE. AS numbers in AS_PATH are 4 octets (both
// ends of every emulated session negotiate the AS4 capability).
func MarshalUpdate(u *Update) []byte {
	withdrawn := marshalPrefixes(nil, u.Withdrawn)
	var attrs []byte
	if u.Attrs != nil {
		attrs = marshalAttrs(u.Attrs, u.NextHop)
	}
	nlri := marshalPrefixes(nil, u.NLRI)

	b := make([]byte, 0, headerLen+4+len(withdrawn)+len(attrs)+len(nlri))
	b = append(b, make([]byte, headerLen)...)
	var wl [2]byte
	binary.BigEndian.PutUint16(wl[:], uint16(len(withdrawn)))
	b = append(b, wl[:]...)
	b = append(b, withdrawn...)
	var al [2]byte
	binary.BigEndian.PutUint16(al[:], uint16(len(attrs)))
	b = append(b, al[:]...)
	b = append(b, attrs...)
	b = append(b, nlri...)
	putHeader(b, MsgUpdate)
	return b
}

func appendAttr(dst []byte, flags, typ uint8, data []byte) []byte {
	if len(data) > 255 {
		flags |= flagExtLen
		dst = append(dst, flags, typ, byte(len(data)>>8), byte(len(data)))
	} else {
		dst = append(dst, flags, typ, byte(len(data)))
	}
	return append(dst, data...)
}

func marshalAttrs(a *Attrs, nextHop netpkt.IP) []byte {
	var out []byte
	out = appendAttr(out, flagTransitive, attrOrigin, []byte{byte(a.Origin)})

	var pathData []byte
	if a.Path != nil {
		for _, seg := range a.Path.Segments {
			pathData = append(pathData, byte(seg.Type), byte(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				var v [4]byte
				binary.BigEndian.PutUint32(v[:], asn)
				pathData = append(pathData, v[:]...)
			}
		}
	}
	out = appendAttr(out, flagTransitive, attrASPath, pathData)

	var nh [4]byte
	binary.BigEndian.PutUint32(nh[:], uint32(nextHop))
	out = appendAttr(out, flagTransitive, attrNextHop, nh[:])

	if a.HasMED {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.MED)
		out = appendAttr(out, flagOptional, attrMED, v[:])
	}
	if a.HasLP {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], a.LocalPref)
		out = appendAttr(out, flagTransitive, attrLocalPref, v[:])
	}
	if a.Atomic {
		out = appendAttr(out, flagTransitive, attrAtomicAgg, nil)
	}
	if a.AggAS != 0 {
		var v [8]byte
		binary.BigEndian.PutUint32(v[0:4], a.AggAS)
		binary.BigEndian.PutUint32(v[4:8], uint32(a.AggID))
		out = appendAttr(out, flagOptional|flagTransitive, attrAggregator, v[:])
	}
	return out
}

func parseAttrs(b []byte) (*Attrs, netpkt.IP, error) {
	var nextHop netpkt.IP
	a := &Attrs{Path: EmptyPath}
	sawOrigin, sawPath, sawNextHop := false, false, false
	for len(b) > 0 {
		if len(b) < 3 {
			return nil, 0, ErrMalformed
		}
		flags, typ := b[0], b[1]
		var alen int
		var rest []byte
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return nil, 0, ErrMalformed
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			rest = b[4:]
		} else {
			alen = int(b[2])
			rest = b[3:]
		}
		if len(rest) < alen {
			return nil, 0, ErrMalformed
		}
		data := rest[:alen]
		b = rest[alen:]

		switch typ {
		case attrOrigin:
			if alen != 1 || data[0] > 2 {
				return nil, 0, ErrMalformed
			}
			a.Origin = Origin(data[0])
			sawOrigin = true
		case attrASPath:
			path := &ASPath{}
			d := data
			for len(d) > 0 {
				if len(d) < 2 {
					return nil, 0, ErrMalformed
				}
				st, cnt := SegmentType(d[0]), int(d[1])
				if st != ASSet && st != ASSequence {
					return nil, 0, ErrMalformed
				}
				if len(d) < 2+4*cnt {
					return nil, 0, ErrMalformed
				}
				seg := Segment{Type: st, ASNs: make([]uint32, cnt)}
				for i := 0; i < cnt; i++ {
					seg.ASNs[i] = binary.BigEndian.Uint32(d[2+4*i : 6+4*i])
				}
				path.Segments = append(path.Segments, seg)
				d = d[2+4*cnt:]
			}
			a.Path = path
			sawPath = true
		case attrNextHop:
			if alen != 4 {
				return nil, 0, ErrMalformed
			}
			nextHop = netpkt.IP(binary.BigEndian.Uint32(data))
			sawNextHop = true
		case attrMED:
			if alen != 4 {
				return nil, 0, ErrMalformed
			}
			a.MED, a.HasMED = binary.BigEndian.Uint32(data), true
		case attrLocalPref:
			if alen != 4 {
				return nil, 0, ErrMalformed
			}
			a.LocalPref, a.HasLP = binary.BigEndian.Uint32(data), true
		case attrAtomicAgg:
			a.Atomic = true
		case attrAggregator:
			if alen != 8 {
				return nil, 0, ErrMalformed
			}
			a.AggAS = binary.BigEndian.Uint32(data[0:4])
			a.AggID = netpkt.IP(binary.BigEndian.Uint32(data[4:8]))
		default:
			// Unknown optional attributes are ignored; unknown well-known
			// attributes are an error per RFC 4271.
			if flags&flagOptional == 0 {
				return nil, 0, ErrMalformed
			}
		}
	}
	if !sawOrigin || !sawPath || !sawNextHop {
		return nil, 0, ErrMalformed
	}
	return a, nextHop, nil
}

// Decoded is the result of decoding one message.
type Decoded struct {
	Type   uint8
	Open   *Open
	Update *Update
	Notif  *Notification
}

// Decode parses a single complete BGP message.
func Decode(b []byte) (*Decoded, error) {
	if len(b) < headerLen {
		return nil, ErrBadLength
	}
	for i := 0; i < markerLen; i++ {
		if b[i] != 0xff {
			return nil, ErrBadMarker
		}
	}
	l := int(binary.BigEndian.Uint16(b[16:18]))
	if l < headerLen || l > maxMessageLen || l != len(b) {
		return nil, ErrBadLength
	}
	typ := b[18]
	body := b[headerLen:]
	switch typ {
	case MsgOpen:
		if len(body) < 10 {
			return nil, ErrBadLength
		}
		if body[0] != Version {
			return nil, ErrBadVersion
		}
		o := &Open{
			AS:       uint32(binary.BigEndian.Uint16(body[1:3])),
			HoldTime: binary.BigEndian.Uint16(body[3:5]),
			BGPID:    netpkt.IP(binary.BigEndian.Uint32(body[5:9])),
		}
		optLen := int(body[9])
		if len(body) < 10+optLen {
			return nil, ErrBadLength
		}
		opts := body[10 : 10+optLen]
		for len(opts) >= 2 {
			ptype, plen := opts[0], int(opts[1])
			if len(opts) < 2+plen {
				return nil, ErrMalformed
			}
			if ptype == 2 { // capabilities
				caps := opts[2 : 2+plen]
				for len(caps) >= 2 {
					code, clen := caps[0], int(caps[1])
					if len(caps) < 2+clen {
						return nil, ErrMalformed
					}
					if code == capFourOctetAS && clen == 4 {
						o.AS = binary.BigEndian.Uint32(caps[2:6])
					}
					if code == capConnGen && clen == 4 {
						o.Gen = binary.BigEndian.Uint32(caps[2:6])
					}
					caps = caps[2+clen:]
				}
			}
			opts = opts[2+plen:]
		}
		return &Decoded{Type: MsgOpen, Open: o}, nil
	case MsgUpdate:
		if len(body) < 4 {
			return nil, ErrBadLength
		}
		wl := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < 2+wl+2 {
			return nil, ErrMalformed
		}
		withdrawn, err := parsePrefixes(body[2 : 2+wl])
		if err != nil {
			return nil, err
		}
		al := int(binary.BigEndian.Uint16(body[2+wl : 4+wl]))
		if len(body) < 4+wl+al {
			return nil, ErrMalformed
		}
		u := &Update{Withdrawn: withdrawn}
		attrBytes := body[4+wl : 4+wl+al]
		nlriBytes := body[4+wl+al:]
		if len(nlriBytes) > 0 && al == 0 {
			return nil, ErrMalformed
		}
		if al > 0 {
			u.Attrs, u.NextHop, err = parseAttrs(attrBytes)
			if err != nil {
				return nil, err
			}
			// The dominant allocation at scale: every neighbor of every
			// device re-parses the same attribute bytes. Collapse to the
			// process-wide canonical object.
			u.Attrs = Intern(u.Attrs)
		}
		u.NLRI, err = parsePrefixes(nlriBytes)
		if err != nil {
			return nil, err
		}
		return &Decoded{Type: MsgUpdate, Update: u}, nil
	case MsgKeepalive:
		if l != headerLen {
			return nil, ErrBadLength
		}
		return &Decoded{Type: MsgKeepalive}, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, ErrBadLength
		}
		return &Decoded{Type: MsgNotification, Notif: &Notification{
			Code: body[0], Subcode: body[1], Data: body[2:],
		}}, nil
	default:
		return nil, ErrBadType
	}
}

// UpdatePrefixes returns the prefixes an encoded UPDATE withdraws or
// announces, without parsing or interning its attributes. It returns nil
// for any other message type and for a malformed UPDATE, whose error
// Decode reports when the message is handled.
func UpdatePrefixes(b []byte) []netpkt.Prefix {
	if len(b) < headerLen+4 || b[18] != MsgUpdate {
		return nil
	}
	body := b[headerLen:]
	wl := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wl+2 {
		return nil
	}
	al := int(binary.BigEndian.Uint16(body[2+wl : 4+wl]))
	if len(body) < 4+wl+al {
		return nil
	}
	withdrawn, err := parsePrefixes(body[2 : 2+wl])
	if err != nil {
		return nil
	}
	nlri, err := parsePrefixes(body[4+wl+al:])
	if err != nil {
		return nil
	}
	return append(withdrawn, nlri...)
}

// MaxNLRIPerUpdate bounds how many prefixes fit into one UPDATE given the
// 4096-byte message cap; routers split larger batches. A nil attrs computes
// the bound for withdrawal-only messages.
func MaxNLRIPerUpdate(attrs *Attrs) int {
	overhead := headerLen + 4
	if attrs != nil {
		overhead += len(marshalAttrs(attrs, 0))
	}
	per := 5 // worst case /32: 1 length byte + 4 octets
	return (maxMessageLen - overhead) / per
}

// String summarizes a decoded message for logs.
func (d *Decoded) String() string {
	switch d.Type {
	case MsgOpen:
		return fmt.Sprintf("OPEN as=%d id=%s hold=%d", d.Open.AS, d.Open.BGPID, d.Open.HoldTime)
	case MsgUpdate:
		return fmt.Sprintf("UPDATE nlri=%d withdrawn=%d", len(d.Update.NLRI), len(d.Update.Withdrawn))
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgNotification:
		return fmt.Sprintf("NOTIFICATION code=%d/%d", d.Notif.Code, d.Notif.Subcode)
	}
	return "UNKNOWN"
}
