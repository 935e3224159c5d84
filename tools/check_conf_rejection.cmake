# Asserts that a tool rejects a one-line conf file (written as bad.conf in
# the working directory and passed as --conf after CAPES_ARGS) with the
# expected exit code and an error that names the offending key. Run as:
#
#   cmake -DCAPES_TOOL=<binary> "-DCONF_LINE=<key = value>" \
#         -DEXPECT_RC=<n> ["-DCAPES_ARGS=<arg;arg>"] \
#         -P tools/check_conf_rejection.cmake

string(REGEX REPLACE " *=.*" "" key "${CONF_LINE}")
file(WRITE bad.conf "${CONF_LINE}\n")
execute_process(
  COMMAND ${CAPES_TOOL} ${CAPES_ARGS} --conf=bad.conf
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out
  RESULT_VARIABLE rc)
string(FIND "${out}" "${key}" position)
if(NOT rc EQUAL EXPECT_RC OR position EQUAL -1)
  message(FATAL_ERROR "'${CONF_LINE}': expected exit ${EXPECT_RC} and an "
    "error naming ${key}; got exit ${rc}:\n${out}")
endif()
message(STATUS "'${CONF_LINE}' rejected with exit ${rc}, naming ${key}")
