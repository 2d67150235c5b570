package deps

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// This file implements the XML wire format of Table 1. The paper writes
// dependency records as attribute-only elements:
//
//	<network src="S1" dst="Internet" route="ToR1,Core1"/>
//	<hardware hw="S1" type="CPU" dep="S1-Intel(R)X5550@2.6GHz"/>
//	<software pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>
//
// A document is a <dependencies> element containing any number of records.
// It is the import/export format (-deps files, cmd/depgen) only: a list item
// holding a comma, or a control character, does not survive the round trip.

type xmlNetwork struct {
	XMLName xml.Name `xml:"network"`
	Src     string   `xml:"src,attr"`
	Dst     string   `xml:"dst,attr"`
	Route   string   `xml:"route,attr"`
}

type xmlHardware struct {
	XMLName xml.Name `xml:"hardware"`
	HW      string   `xml:"hw,attr"`
	Type    string   `xml:"type,attr"`
	Dep     string   `xml:"dep,attr"`
}

type xmlSoftware struct {
	XMLName xml.Name `xml:"software"`
	Pgm     string   `xml:"pgm,attr"`
	HW      string   `xml:"hw,attr"`
	Dep     string   `xml:"dep,attr"`
}

type xmlDocument struct {
	XMLName  xml.Name      `xml:"dependencies"`
	Network  []xmlNetwork  `xml:"network"`
	Hardware []xmlHardware `xml:"hardware"`
	Software []xmlSoftware `xml:"software"`
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// EncodeXML writes records as an indented XML document.
func EncodeXML(w io.Writer, records []Record) error {
	doc := xmlDocument{}
	for i, r := range records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("deps: record %d: %w", i, err)
		}
		switch r.Kind {
		case KindNetwork:
			doc.Network = append(doc.Network, xmlNetwork{
				Src: r.Network.Src, Dst: r.Network.Dst, Route: strings.Join(r.Network.Route, ","),
			})
		case KindHardware:
			doc.Hardware = append(doc.Hardware, xmlHardware{
				HW: r.Hardware.HW, Type: r.Hardware.Type, Dep: r.Hardware.Dep,
			})
		case KindSoftware:
			doc.Software = append(doc.Software, xmlSoftware{
				Pgm: r.Software.Pgm, HW: r.Software.HW, Dep: strings.Join(r.Software.Dep, ","),
			})
		}
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("deps: encode: %w", err)
	}
	if err := enc.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// DecodeXML parses an XML document produced by EncodeXML (or hand-written in
// the same schema) back into records. Record order within each kind is
// preserved; kinds are returned grouped network, hardware, software.
func DecodeXML(r io.Reader) ([]Record, error) {
	var doc xmlDocument
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("deps: decode: %w", err)
	}
	var out []Record
	for _, n := range doc.Network {
		rec := NewNetwork(n.Src, n.Dst, splitList(n.Route)...)
		if err := rec.Validate(); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	for _, h := range doc.Hardware {
		rec := NewHardware(h.HW, h.Type, h.Dep)
		if err := rec.Validate(); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	for _, s := range doc.Software {
		rec := NewSoftware(s.Pgm, s.HW, splitList(s.Dep)...)
		if err := rec.Validate(); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
