package layout

import (
	"reflect"
	"strings"
	"testing"
)

func TestPointerFree(t *testing.T) {
	type inner struct {
		A [2]int64
		B bool
	}
	if err := PointerFree(reflect.TypeOf(struct {
		X inner
		Y [3]inner
	}{})); err != nil {
		t.Errorf("scalar struct: %v", err)
	}
	for _, v := range []any{
		struct{ S string }{},
		struct{ In struct{ P *int } }{},
		struct{ A [1]any }{},
		struct{ L []byte }{},
		struct{ M map[int]int }{},
		struct{ F func() }{},
		struct{ C chan int }{},
	} {
		err := PointerFree(reflect.TypeOf(v))
		if err == nil || !strings.Contains(err.Error(), ".") {
			t.Errorf("%T: err = %v, want the field path", v, err)
		}
	}
}
