// Command app names lib.Used.
package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() { fmt.Println(lib.Used()) }
