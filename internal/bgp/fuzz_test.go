package bgp

import (
	"testing"

	"crystalnet/internal/netpkt"
)

// FuzzUpdatePrefixes checks the receive window's prefix scan against the
// full decoder: whenever Decode accepts an UPDATE, UpdatePrefixes must
// return exactly its withdrawn prefixes followed by its NLRI, in order.
// Neither function may panic on any input.
func FuzzUpdatePrefixes(f *testing.F) {
	path := &ASPath{Segments: []Segment{{Type: ASSequence, ASNs: []uint32{65001, 65002}}}}
	for _, u := range []*Update{
		{Withdrawn: []netpkt.Prefix{pfx("10.0.0.0/8")}},
		{Attrs: &Attrs{Origin: OriginIGP, Path: path}, NextHop: ip("10.128.0.1"),
			NLRI: []netpkt.Prefix{pfx("10.1.0.0/24"), pfx("10.2.3.4/32"), pfx("0.0.0.0/0")}},
		{Withdrawn: []netpkt.Prefix{pfx("10.9.0.0/16")},
			Attrs: &Attrs{Origin: OriginEGP, Path: path, HasMED: true, MED: 5, AggAS: 65010,
				AggID: ip("1.1.1.1"), Atomic: true},
			NLRI: []netpkt.Prefix{pfx("192.168.0.0/23")}},
		{},
	} {
		f.Add(MarshalUpdate(u))
	}
	f.Add(MarshalKeepalive())
	f.Add(MarshalOpen(&Open{AS: 65001, HoldTime: 90, BGPID: ip("1.1.1.1")}))
	f.Fuzz(func(t *testing.T, b []byte) {
		got := UpdatePrefixes(b)
		d, err := Decode(b)
		if err != nil || d.Type != MsgUpdate {
			return
		}
		want := append(append([]netpkt.Prefix(nil), d.Update.Withdrawn...), d.Update.NLRI...)
		if len(got) != len(want) {
			t.Fatalf("UpdatePrefixes = %v, Decode gives withdrawn %v + nlri %v",
				got, d.Update.Withdrawn, d.Update.NLRI)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("UpdatePrefixes = %v, Decode gives withdrawn %v + nlri %v",
					got, d.Update.Withdrawn, d.Update.NLRI)
			}
		}
	})
}
