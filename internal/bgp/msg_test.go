package bgp

import (
	"testing"
	"testing/quick"

	"crystalnet/internal/netpkt"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }
func ip(s string) netpkt.IP      { return netpkt.MustParseIP(s) }

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{AS: 4200000123, HoldTime: 180, BGPID: ip("10.0.0.7")}
	d, err := Decode(MarshalOpen(o))
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != MsgOpen {
		t.Fatalf("type = %d", d.Type)
	}
	if d.Open.AS != o.AS || d.Open.HoldTime != o.HoldTime || d.Open.BGPID != o.BGPID {
		t.Fatalf("round trip mismatch: %+v vs %+v", d.Open, o)
	}
}

func TestOpenSmallASStillCarriesCap(t *testing.T) {
	o := &Open{AS: 65001, HoldTime: 90, BGPID: ip("1.2.3.4")}
	d, err := Decode(MarshalOpen(o))
	if err != nil {
		t.Fatal(err)
	}
	if d.Open.AS != 65001 {
		t.Fatalf("AS = %d", d.Open.AS)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	d, err := Decode(MarshalKeepalive())
	if err != nil || d.Type != MsgKeepalive {
		t.Fatalf("keepalive decode: %v %v", d, err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")}
	d, err := Decode(MarshalNotification(n))
	if err != nil {
		t.Fatal(err)
	}
	if d.Notif.Code != NotifCease || d.Notif.Subcode != 2 || string(d.Notif.Data) != "bye" {
		t.Fatalf("notif mismatch: %+v", d.Notif)
	}
}

func TestUpdateRoundTripFullAttrs(t *testing.T) {
	u := &Update{
		Withdrawn: []netpkt.Prefix{pfx("10.9.0.0/16"), pfx("0.0.0.0/0")},
		NextHop:   ip("10.128.0.1"),
		Attrs: &Attrs{
			Origin: OriginEGP,
			Path:   &ASPath{Segments: []Segment{{Type: ASSequence, ASNs: []uint32{65100, 4200000001}}, {Type: ASSet, ASNs: []uint32{1, 2}}}},
			MED:    42, HasMED: true,
			LocalPref: 200, HasLP: true,
			Atomic: true,
			AggAS:  65006, AggID: ip("10.0.0.6"),
		},
		NLRI: []netpkt.Prefix{pfx("100.64.0.0/24"), pfx("100.64.1.0/24"), pfx("10.0.0.1/32")},
	}
	d, err := Decode(MarshalUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Update
	if len(g.Withdrawn) != 2 || g.Withdrawn[0] != u.Withdrawn[0] || g.Withdrawn[1] != u.Withdrawn[1] {
		t.Fatalf("withdrawn mismatch: %v", g.Withdrawn)
	}
	if len(g.NLRI) != 3 || g.NLRI[2] != pfx("10.0.0.1/32") {
		t.Fatalf("nlri mismatch: %v", g.NLRI)
	}
	// NEXT_HOP is a session property: it round-trips on the Update, and the
	// decoded (canonical, internable) attrs never carry it.
	if g.NextHop != u.NextHop {
		t.Fatalf("next hop mismatch: got %v want %v", g.NextHop, u.NextHop)
	}
	a := g.Attrs
	if a.Origin != OriginEGP || !a.Path.Equal(u.Attrs.Path) || a.NextHop != 0 {
		t.Fatalf("attrs mismatch: %+v", a)
	}
	if !a.HasMED || a.MED != 42 || !a.HasLP || a.LocalPref != 200 || !a.Atomic {
		t.Fatalf("optional attrs mismatch: %+v", a)
	}
	if a.AggAS != 65006 || a.AggID != ip("10.0.0.6") {
		t.Fatalf("aggregator mismatch: %+v", a)
	}
}

func TestUpdatePrefixesMatchesDecode(t *testing.T) {
	u := &Update{
		Withdrawn: []netpkt.Prefix{pfx("10.9.0.0/16")},
		NextHop:   ip("10.128.0.1"),
		Attrs:     &Attrs{Origin: OriginIGP, Path: &ASPath{Segments: []Segment{{Type: ASSequence, ASNs: []uint32{65001}}}}},
		NLRI:      []netpkt.Prefix{pfx("10.1.0.0/24"), pfx("10.2.3.4/32")},
	}
	got := UpdatePrefixes(MarshalUpdate(u))
	want := []netpkt.Prefix{pfx("10.9.0.0/16"), pfx("10.1.0.0/24"), pfx("10.2.3.4/32")}
	if len(got) != len(want) {
		t.Fatalf("UpdatePrefixes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UpdatePrefixes = %v, want %v", got, want)
		}
	}
	for _, msg := range [][]byte{MarshalKeepalive(), MarshalOpen(&Open{AS: 65001}), {0xff}} {
		if got := UpdatePrefixes(msg); got != nil {
			t.Fatalf("UpdatePrefixes(non-UPDATE) = %v, want nil", got)
		}
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []netpkt.Prefix{pfx("10.0.0.0/8")}}
	d, err := Decode(MarshalUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if d.Update.Attrs != nil || len(d.Update.NLRI) != 0 || len(d.Update.Withdrawn) != 1 {
		t.Fatalf("withdraw-only mismatch: %+v", d.Update)
	}
}

func TestUpdateLongPathExtendedLength(t *testing.T) {
	// Build a path long enough to force the extended-length attribute flag
	// (>255 bytes of AS_PATH data = >63 ASNs).
	asns := make([]uint32, 100)
	for i := range asns {
		asns[i] = uint32(65000 + i)
	}
	u := &Update{
		Attrs: &Attrs{Origin: OriginIGP, Path: NewPath(asns...), NextHop: ip("1.1.1.1")},
		NLRI:  []netpkt.Prefix{pfx("10.0.0.0/8")},
	}
	d, err := Decode(MarshalUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Update.Attrs.Path.Equal(u.Attrs.Path) {
		t.Fatal("long path corrupted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrBadLength {
		t.Fatalf("short msg: %v", err)
	}
	good := MarshalKeepalive()
	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	if _, err := Decode(bad); err != ErrBadMarker {
		t.Fatalf("bad marker: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[18] = 9
	if _, err := Decode(bad); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[17] = 200 // wrong length field
	if _, err := Decode(bad); err != ErrBadLength {
		t.Fatalf("bad length: %v", err)
	}
	// OPEN with wrong version.
	o := MarshalOpen(&Open{AS: 1, BGPID: 1})
	o[headerLen] = 3
	if _, err := Decode(o); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
}

func TestDecodeMalformedUpdate(t *testing.T) {
	// NLRI present but no attributes.
	u := &Update{NLRI: []netpkt.Prefix{pfx("10.0.0.0/8")}}
	if _, err := Decode(MarshalUpdate(u)); err != ErrMalformed {
		t.Fatalf("attrless NLRI: %v", err)
	}
	// Prefix length > 32 in withdrawals.
	raw := MarshalUpdate(&Update{Withdrawn: []netpkt.Prefix{pfx("10.0.0.0/8")}})
	raw[headerLen+2] = 33 // corrupt the prefix length byte
	if _, err := Decode(raw); err == nil {
		t.Fatal("prefix len 33 accepted")
	}
}

func TestMissingMandatoryAttr(t *testing.T) {
	// Hand-build an UPDATE whose attrs lack NEXT_HOP.
	attrs := appendAttr(nil, flagTransitive, attrOrigin, []byte{0})
	attrs = appendAttr(attrs, flagTransitive, attrASPath, nil)
	body := []byte{0, 0, byte(len(attrs) >> 8), byte(len(attrs))}
	body = append(body, attrs...)
	body = append(body, 8, 10) // NLRI 10.0.0.0/8
	msg := make([]byte, headerLen+len(body))
	copy(msg[headerLen:], body)
	putHeader(msg, MsgUpdate)
	if _, err := Decode(msg); err != ErrMalformed {
		t.Fatalf("missing NEXT_HOP: %v", err)
	}
}

func TestUnknownOptionalAttrIgnored(t *testing.T) {
	attrs := appendAttr(nil, flagTransitive, attrOrigin, []byte{0})
	attrs = appendAttr(attrs, flagTransitive, attrASPath, nil)
	attrs = appendAttr(attrs, flagTransitive, attrNextHop, []byte{1, 2, 3, 4})
	attrs = appendAttr(attrs, flagOptional, 99, []byte{0xde, 0xad}) // unknown optional
	body := []byte{0, 0, byte(len(attrs) >> 8), byte(len(attrs))}
	body = append(body, attrs...)
	body = append(body, 8, 10)
	msg := make([]byte, headerLen+len(body))
	copy(msg[headerLen:], body)
	putHeader(msg, MsgUpdate)
	d, err := Decode(msg)
	if err != nil {
		t.Fatalf("unknown optional attr should be ignored: %v", err)
	}
	if len(d.Update.NLRI) != 1 {
		t.Fatal("NLRI lost")
	}
	// Unknown well-known attr is an error.
	attrs2 := appendAttr(nil, flagTransitive, 99, []byte{1})
	body2 := []byte{0, 0, byte(len(attrs2) >> 8), byte(len(attrs2))}
	body2 = append(body2, attrs2...)
	msg2 := make([]byte, headerLen+len(body2))
	copy(msg2[headerLen:], body2)
	putHeader(msg2, MsgUpdate)
	if _, err := Decode(msg2); err != ErrMalformed {
		t.Fatalf("unknown well-known attr: %v", err)
	}
}

func TestMaxNLRIPerUpdate(t *testing.T) {
	a := &Attrs{Origin: OriginIGP, Path: NewPath(1, 2, 3), NextHop: 1}
	max := MaxNLRIPerUpdate(a)
	if max <= 0 || max > 900 {
		t.Fatalf("MaxNLRIPerUpdate = %d, implausible", max)
	}
	// A maximal message must still encode/decode within the cap.
	nlri := make([]netpkt.Prefix, max)
	for i := range nlri {
		nlri[i] = netpkt.Prefix{Addr: netpkt.IP(i << 8), Len: 32}
	}
	raw := MarshalUpdate(&Update{Attrs: a, NLRI: nlri})
	if len(raw) > maxMessageLen {
		t.Fatalf("message size %d exceeds cap", len(raw))
	}
	if _, err := Decode(raw); err != nil {
		t.Fatal(err)
	}
	if MaxNLRIPerUpdate(nil) <= 0 {
		t.Fatal("withdrawal-only bound must be positive")
	}
}

func TestDecodedString(t *testing.T) {
	d, _ := Decode(MarshalKeepalive())
	if d.String() != "KEEPALIVE" {
		t.Fatalf("String = %q", d.String())
	}
	d, _ = Decode(MarshalOpen(&Open{AS: 5, BGPID: 1}))
	if d.String() == "" {
		t.Fatal("empty OPEN string")
	}
}

func TestPropertyUpdateNLRIRoundTrip(t *testing.T) {
	f := func(addrs []uint32, lens []uint8) bool {
		var nlri []netpkt.Prefix
		for i, a := range addrs {
			if i >= len(lens) || i > 200 {
				break
			}
			p := netpkt.Prefix{Addr: netpkt.IP(a), Len: lens[i] % 33}
			p.Addr &= p.MaskIP()
			nlri = append(nlri, p)
		}
		u := &Update{NLRI: nlri}
		if len(nlri) > 0 {
			u.Attrs = &Attrs{Origin: OriginIGP, Path: NewPath(65000), NextHop: 1}
		}
		d, err := Decode(MarshalUpdate(u))
		if err != nil {
			return false
		}
		if len(d.Update.NLRI) != len(nlri) {
			return false
		}
		for i := range nlri {
			if d.Update.NLRI[i] != nlri[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdateEncodeDecode(b *testing.B) {
	nlri := make([]netpkt.Prefix, 200)
	for i := range nlri {
		nlri[i] = netpkt.Prefix{Addr: netpkt.IP(0x64400000 + i*256), Len: 24}
	}
	u := &Update{
		Attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65000, 65100, 4200000001), NextHop: ip("10.128.0.1")},
		NLRI:  nlri,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := MarshalUpdate(u)
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
