// Package layout checks the memory shape of the types the rewriter
// holds in large slabs. A slab of pointer-free elements is allocated
// "noscan": the garbage collector never walks it, and copying it needs
// no write barriers. Tests pin that property with PointerFree.
package layout

import (
	"fmt"
	"reflect"
)

// PointerFree reports the first field of t, searched recursively
// through structs and arrays, whose kind holds a pointer: a pointer,
// interface, string, slice, map, chan, func or unsafe pointer. It
// returns nil when t has none.
func PointerFree(t reflect.Type) error {
	return walk(t, t.String())
}

func walk(t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if err := walk(f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
	case reflect.Array:
		return walk(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.Interface, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return fmt.Errorf("%s is a %s", path, t.Kind())
	}
	return nil
}
