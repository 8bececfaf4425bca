package asm

import (
	"fmt"
	"strings"
)

// Print renders the program as GNU-as-like text. The output is meant for
// humans inspecting the intermediate assembly (the S / S' files of the
// paper); it is not re-parsed by the pipeline, which works on the
// structured Program directly.
func Print(p *Program) string {
	var b strings.Builder
	t := p.Syms
	if t == nil {
		t = NewSymtab(0)
	}
	for _, set := range p.Sets {
		fmt.Fprintf(&b, ".set %s, 0x%x\n", set.Name, set.Addr)
	}
	for _, s := range p.Sections {
		fmt.Fprintf(&b, "\n.section %s,\"%s\"\n", s.Name, flagString(s.Flags))
		if s.HasAddr {
			fmt.Fprintf(&b, "# placed at 0x%x\n", s.Addr)
		}
		if s.Align > 1 {
			fmt.Fprintf(&b, ".align %d\n", s.Align)
		}
		for _, it := range s.Items {
			b.WriteString(t.ItemString(it))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func flagString(f SectionFlags) string {
	var b strings.Builder
	if f&Alloc != 0 {
		b.WriteByte('a')
	}
	if f&Write != 0 {
		b.WriteByte('w')
	}
	if f&Exec != 0 {
		b.WriteByte('x')
	}
	if f&Nobits != 0 {
		b.WriteByte('n')
	}
	return b.String()
}
