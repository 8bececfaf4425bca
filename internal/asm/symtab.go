package asm

// Sym is a symbol of a Program: an ID into its symbol table. The zero
// Sym means "no symbol". Items and instructions carry Syms rather than
// names, so the instruction streams that hold them are pointer-free and
// the assembler resolves a reference with one slice index.
type Sym uint32

// Symtab interns symbol names. Names live only here; everything else
// refers to a symbol by its Sym.
//
// A Symtab also keeps label lists: Link chains a symbol to the next
// label defined at the same position, so a stream element that defines
// several labels holds only the first (see serialize.Entry).
//
// A Symtab is not safe for concurrent use.
type Symtab struct {
	names []string // names[s] is the name of Sym s; names[0] is unused
	next  []Sym    // next[s] is the label after s at its position, or 0
	ids   map[string]Sym
}

// NewSymtab returns an empty table with room for n symbols.
func NewSymtab(n int) *Symtab {
	return &Symtab{
		names: make([]string, 1, n+1),
		next:  make([]Sym, 1, n+1),
		ids:   make(map[string]Sym, n),
	}
}

// Intern returns name's symbol, adding it on first use.
func (t *Symtab) Intern(name string) Sym {
	if s, ok := t.ids[name]; ok {
		return s
	}
	s := Sym(len(t.names))
	t.names = append(t.names, name)
	t.next = append(t.next, 0)
	t.ids[name] = s
	return s
}

// Lookup returns name's symbol if it has been interned.
func (t *Symtab) Lookup(name string) (Sym, bool) {
	s, ok := t.ids[name]
	return s, ok
}

// LookupBytes is Lookup for a name held in a byte slice; it builds no
// string.
func (t *Symtab) LookupBytes(name []byte) (Sym, bool) {
	s, ok := t.ids[string(name)]
	return s, ok
}

// Name returns the symbol's name ("" for the zero Sym).
func (t *Symtab) Name(s Sym) string { return t.names[s] }

// Len reports how many symbols the table holds; valid Syms are 1..Len.
func (t *Symtab) Len() int { return len(t.names) - 1 }

// Next returns the label after s in its label list, or 0 at the end.
func (t *Symtab) Next(s Sym) Sym { return t.next[s] }

// Link appends the label list rest to the list that starts at head and
// returns the joined list's head (rest when head is 0).
func (t *Symtab) Link(head, rest Sym) Sym {
	if head == 0 {
		return rest
	}
	last := head
	for t.next[last] != 0 {
		last = t.next[last]
	}
	t.next[last] = rest
	return head
}
