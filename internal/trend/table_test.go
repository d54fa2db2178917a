package trend

import (
	"reflect"
	"testing"
)

// pointerFree reports whether a value of type t holds no pointer: the GC
// does not scan an array of such values.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Func,
		reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return false
	}
	return true
}

// TestEventTableStoresNoPointer requires every type a detector period
// table stores — its index keys and values, its entries, its arena and its
// heap, the entries and arena as what the chunks of their directories
// store — to hold no pointer, so the GC never traces a retained event.
func TestEventTableStoresNoPointer(t *testing.T) {
	typ := reflect.TypeFor[eventTable]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		var stored []reflect.Type
		switch f.Type.Kind() {
		case reflect.Map:
			stored = []reflect.Type{f.Type.Key(), f.Type.Elem()}
		case reflect.Slice:
			// A directory of chunks ([][]T) stores what its chunks do.
			elem := f.Type.Elem()
			if elem.Kind() == reflect.Slice {
				elem = elem.Elem()
			}
			stored = []reflect.Type{elem}
		}
		for _, st := range stored {
			if !pointerFree(st) {
				t.Errorf("field %s stores %v, which holds a pointer", f.Name, st)
			}
		}
	}
}
