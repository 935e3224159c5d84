# Asserts that docs/CONFIG.md documents every flag a CLI tool accepts.
# Each tool generates its --help from the same flag table its parser
# walks (src/util/cli.hpp), so the flag list read back from --help is the
# parser's own; what can still drift is the prose reference. Every flag
# must appear as `--flag in the tool's "## TOOL flags" section. Run as:
#
#   cmake -DCAPES_TOOL=<binary> -DCAPES_CONFIG_DOC=<docs/CONFIG.md> \
#         [-DCAPES_MIN_FLAGS=<n>] -P tools/check_usage.cmake
#
# CAPES_MIN_FLAGS (default 10, sized for capes_run) is the extraction
# sanity floor: finding fewer flags than this means the --help layout
# changed under the regex, not that the tool shrank.

if(NOT CAPES_TOOL OR NOT CAPES_CONFIG_DOC)
  message(FATAL_ERROR
    "usage: cmake -DCAPES_TOOL=<binary> -DCAPES_CONFIG_DOC=<CONFIG.md> "
    "-P check_usage.cmake")
endif()
get_filename_component(tool ${CAPES_TOOL} NAME_WE)

execute_process(COMMAND ${CAPES_TOOL} --help
  OUTPUT_VARIABLE usage
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CAPES_TOOL} --help exited with ${rc}")
endif()

# --help is: synopsis, blank line, one "  --flag[=METAVAR]  help" line per
# flag, blank line, prose. Read the flags from the middle block only, so
# example command lines in the prose cannot stand in for a table entry.
string(FIND "${usage}" "\n\n" start)
math(EXPR start "${start} + 2")
string(SUBSTRING "${usage}" ${start} -1 table)
string(FIND "${table}" "\n\n" end)
string(SUBSTRING "${table}" 0 ${end} table)
string(REGEX MATCHALL "(^|\n)  --[a-z0-9-]+" matches "${table}")
set(flags "")
foreach(match IN LISTS matches)
  string(REGEX REPLACE ".*(--[a-z0-9-]+)$" "\\1" flag "${match}")
  list(APPEND flags "${flag}")
endforeach()
list(LENGTH flags flag_count)
if(NOT CAPES_MIN_FLAGS)
  set(CAPES_MIN_FLAGS 10)
endif()
if(flag_count LESS CAPES_MIN_FLAGS)
  message(FATAL_ERROR
    "flag extraction looks broken: only found ${flag_count} flags "
    "(${flags}) in ${tool} --help")
endif()

file(READ ${CAPES_CONFIG_DOC} doc)
string(FIND "${doc}" "\n## ${tool} flags\n" section_start)
if(section_start EQUAL -1)
  message(FATAL_ERROR "${CAPES_CONFIG_DOC} has no '## ${tool} flags' section")
endif()
math(EXPR section_start "${section_start} + 1")
string(SUBSTRING "${doc}" ${section_start} -1 section)
string(FIND "${section}" "\n## " section_end)
string(SUBSTRING "${section}" 0 ${section_end} section)

set(missing "")
foreach(flag IN LISTS flags)
  string(FIND "${section}" "`${flag}" position)
  if(position EQUAL -1)
    list(APPEND missing "${flag}")
  endif()
endforeach()

if(missing)
  message(FATAL_ERROR
    "${CAPES_CONFIG_DOC} '## ${tool} flags' omits flag(s) ${tool} accepts: "
    "${missing}")
endif()
message(STATUS "${CAPES_CONFIG_DOC} documents all ${flag_count} ${tool} flags")
